package experiments

import (
	"fmt"

	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/stats"
	"sr2201/internal/traffic"
)

func init() {
	register(Experiment{ID: "E11", Title: "Full-machine configuration (3D, up to 2048 PEs)", Paper: "Sec. 2", run: runE11})
}

// runE11 exercises the d=3 machine the SR2201 actually shipped as ("connects
// up to 2048 PEs"): dimension-order routing in at most 3 crossbar hops,
// the generalized broadcast covering every PE exactly once, and the detour
// facility under a router fault — all at full scale, plus a background-load
// run. Shape criterion: everything drains, broadcasts cover all healthy PEs
// exactly once, and max crossbar hops stay at 3.
func runE11(r *Report, opt Options) error {
	shapes := []geom.Shape{geom.MustShape(8, 8, 8), geom.MustShape(8, 16, 16)}
	if opt.Quick {
		shapes = []geom.Shape{geom.MustShape(4, 4, 4)}
	}
	tbl := stats.NewTable("E11 3D machines: broadcast, detour and load",
		"shape", "PEs", "bcast copies", "bcast cycles", "detour delivered", "load thr", "load mean lat", "outcome")
	pass := true
	for _, shape := range shapes {
		m, err := core.NewMachine(core.Config{Shape: shape, StallThreshold: 1024})
		if err != nil {
			return err
		}
		bad := shape.CoordOf(shape.Size() / 3)
		if err := m.AddFault(fault.RouterFault(bad)); err != nil {
			return err
		}

		// One broadcast; every healthy PE must receive exactly one copy.
		src := shape.CoordOf(shape.Size() - 1)
		_, covered, err := m.Broadcast(src, 8)
		if err != nil {
			return err
		}
		out := m.Run(2_000_000)
		if !out.Drained {
			return fmt.Errorf("E11: %s broadcast did not drain", shape)
		}
		bcastCycles := out.Cycle
		bcastCopies := len(m.Deliveries())
		if covered != shape.Size()-1 || bcastCopies != covered {
			pass = false
		}
		perPE := map[geom.Coord]int{}
		for _, d := range m.Deliveries() {
			perPE[d.At]++
		}
		for _, n := range perPE {
			if n != 1 {
				pass = false
			}
		}
		m.ResetStats()

		// A wave of point-to-point packets; pairs whose dimension-order
		// route meets the fault must detour and still be delivered. The
		// first group is crafted so the dim-0 turn router is exactly the
		// fault: src = bad shifted in dim 0, dst = bad shifted in dim 1.
		detoured := 0
		sent := 0
		for off := 1; off < shape[0]; off++ {
			s := bad.WithDim(0, (bad[0]+off)%shape[0])
			d := bad.WithDim(1, (bad[1]+off)%shape[1])
			if d == bad || s == d {
				continue
			}
			if _, err := m.Send(s, d, 8); err == nil {
				sent++
			}
		}
		shape.Enumerate(func(s geom.Coord) bool {
			if sent >= 40 || s == bad {
				return sent < 40
			}
			d := shape.CoordOf((shape.Index(s) + shape.Size()/2) % shape.Size())
			if d == bad || d == s {
				return true
			}
			if _, err := m.Send(s, d, 8); err == nil {
				sent++
			}
			return true
		})
		out = m.Run(2_000_000)
		if !out.Drained {
			return fmt.Errorf("E11: %s p2p wave did not drain", shape)
		}
		maxHops := 0
		for _, d := range m.Deliveries() {
			if !d.Detoured {
				if h := d.Src.Distance(d.At); h > maxHops {
					maxHops = h
				}
			}
			if d.Detoured {
				detoured++
			}
		}
		if maxHops > shape.Dims() || detoured == 0 {
			pass = false
		}
		m.ResetStats()

		// Background load.
		drv := traffic.Driver{
			M:       m,
			Pattern: traffic.Uniform{Shape: shape},
			Rate:    0.01,
			Size:    8,
			Seed:    5,
			Warmup:  100,
			Measure: 400,
		}
		res := drv.Run()
		if res.Deadlocked || !res.Drained {
			pass = false
		}
		opt.cellDone(m.Engine().Cycle())
		tbl.AddRow(shape.String(), shape.Size(), bcastCopies, bcastCycles, detoured,
			res.Throughput, res.Latency.Mean(), outcomeWord2(res))
	}
	r.Tables = append(r.Tables, tbl)
	r.Pass = pass
	r.Notef("the 3D broadcast generalizes Y-X-Y to (dims 1..d-1)-X-(dims 1..d-1); hops never exceed d = 3")
	return nil
}

func outcomeWord2(res traffic.Result) string {
	switch {
	case res.Deadlocked:
		return "DEADLOCK"
	case res.Drained:
		return "drained"
	default:
		return "budget"
	}
}
