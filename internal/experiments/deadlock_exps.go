package experiments

import (
	"fmt"

	"sr2201/internal/core"
	"sr2201/internal/deadlock"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/stats"
)

func init() {
	register(Experiment{ID: "E1", Title: "Broadcast deadlock without serialization", Paper: "Fig. 5", run: runE1})
	register(Experiment{ID: "E2", Title: "Serialized broadcast walkthrough (Y-X-Y)", Paper: "Fig. 6", run: runE2})
	register(Experiment{ID: "E3", Title: "Detour path around a faulty router", Paper: "Figs. 7-8", run: runE3})
	register(Experiment{ID: "E4", Title: "Deadlock with D-XB != S-XB", Paper: "Fig. 9", run: runE4})
	register(Experiment{ID: "E5", Title: "Deadlock freedom with D-XB = S-XB", Paper: "Fig. 10 / Sec. 5", run: runE5})
}

const runBudget = 200_000

// outcomeWord renders a deadlock.Outcome for tables.
func outcomeWord(o deadlock.Outcome) string {
	switch {
	case o.Deadlocked:
		return "DEADLOCK"
	case o.Stalled:
		return "stall"
	case o.Drained:
		return "drained"
	default:
		return "budget"
	}
}

// runE1 launches k simultaneous broadcasts under the naive tree scheme and
// under S-XB serialization. Shape criterion: the naive scheme deadlocks for
// some k >= 2, the serialized scheme never does.
func runE1(r *Report, opt Options) error {
	tbl := stats.NewTable("Simultaneous broadcasts under cut-through routing",
		"shape", "broadcasts", "scheme", "outcome", "cycles", "copies")
	shapes := [][]int{{4, 3}, {4, 4}}
	if opt.Quick {
		shapes = [][]int{{4, 3}}
	}
	naiveDeadlocks, serializedFailures := 0, 0
	for _, sh := range shapes {
		shape := geom.MustShape(sh...)
		var srcs []geom.Coord
		shape.Enumerate(func(c geom.Coord) bool {
			if (c[0]+2*c[1])%5 == 1 {
				srcs = append(srcs, c)
			}
			return true
		})
		for k := 2; k <= len(srcs) && k <= 4; k++ {
			for _, naive := range []bool{true, false} {
				m, err := core.NewMachine(core.Config{
					Shape:          shape,
					NaiveBroadcast: naive,
					StallThreshold: 256,
				})
				if err != nil {
					return err
				}
				for _, s := range srcs[:k] {
					if _, _, err := m.Broadcast(s, 8); err != nil {
						return err
					}
				}
				out := m.Run(runBudget)
				scheme := "S-XB serialized"
				if naive {
					scheme = "naive tree"
					if out.Deadlocked {
						naiveDeadlocks++
					}
				} else if !out.Drained {
					serializedFailures++
				}
				tbl.AddRow(shape.String(), k, scheme, outcomeWord(out), out.Cycle, len(m.Deliveries()))
			}
		}
	}
	r.Tables = append(r.Tables, tbl)
	r.Pass = naiveDeadlocks > 0 && serializedFailures == 0
	r.Notef("naive-tree deadlocks: %d; serialized failures: %d", naiveDeadlocks, serializedFailures)
	return nil
}

// runE2 expands one broadcast statically and dynamically, checking the
// paper's Fig. 6 structure: a Y request leg, serialization at the S-XB, and
// a fan that delivers exactly one copy to every PE.
func runE2(r *Report, opt Options) error {
	shape := geom.MustShape(4, 3)
	m, err := core.NewMachine(core.Config{Shape: shape, SXB: geom.Coord{0, 1}})
	if err != nil {
		return err
	}
	src := geom.Coord{3, 2}
	tree, err := m.Policy().BroadcastTree(src)
	if err != nil {
		return err
	}
	if _, _, err := m.Broadcast(src, 8); err != nil {
		return err
	}
	out := m.Run(runBudget)

	tbl := stats.NewTable(fmt.Sprintf("Broadcast from %v via S-XB %v", src, m.Policy().EffectiveSXB()),
		"metric", "value")
	tbl.AddRow("PEs covered (static tree)", len(tree.Delivered))
	tbl.AddRow("tree depth (elements)", tree.Depth)
	tbl.AddRow("tree element traversals", tree.Elements)
	tbl.AddRow("copies delivered (simulated)", len(m.Deliveries()))
	tbl.AddRow("completion cycle", out.Cycle)
	r.Tables = append(r.Tables, tbl)

	exactlyOnce := len(tree.Delivered) == shape.Size()
	for _, n := range tree.Delivered {
		if n != 1 {
			exactlyOnce = false
		}
	}
	perPE := map[geom.Coord]int{}
	for _, d := range m.Deliveries() {
		perPE[d.At]++
	}
	simOnce := len(perPE) == shape.Size()
	for _, n := range perPE {
		if n != 1 {
			simOnce = false
		}
	}
	r.Pass = out.Drained && exactlyOnce && simOnce
	r.Notef("routing is Y-X-Y: the request rides the source column, the S-XB replays, the fan rides columns")
	return nil
}

// runE3 reproduces the Fig. 8 walkthrough: the detour route's hop list, RC
// transitions, and the latency cost versus the fault-free route.
func runE3(r *Report, opt Options) error {
	shape := geom.MustShape(4, 3)
	src, dst := geom.Coord{0, 0}, geom.Coord{2, 2}
	bad := geom.Coord{2, 0} // the dimension-order turn router

	run := func(withFault bool) (int64, int, error) {
		m, err := core.NewMachine(core.Config{Shape: shape, SXB: geom.Coord{0, 1}})
		if err != nil {
			return 0, 0, err
		}
		if withFault {
			if err := m.AddFault(fault.RouterFault(bad)); err != nil {
				return 0, 0, err
			}
		}
		path, err := m.Policy().UnicastPath(src, dst)
		if err != nil {
			return 0, 0, err
		}
		if _, err := m.Send(src, dst, 8); err != nil {
			return 0, 0, err
		}
		if out := m.Run(runBudget); !out.Drained {
			return 0, 0, fmt.Errorf("E3: run did not drain")
		}
		return m.Deliveries()[0].Latency, len(path), nil
	}

	directLat, directHops, err := run(false)
	if err != nil {
		return err
	}
	detourLat, detourHops, err := run(true)
	if err != nil {
		return err
	}

	// Print the detoured hop list (the Fig. 8 step sequence).
	mf, err := core.NewMachine(core.Config{Shape: shape, SXB: geom.Coord{0, 1}})
	if err != nil {
		return err
	}
	if err := mf.AddFault(fault.RouterFault(bad)); err != nil {
		return err
	}
	path, err := mf.Policy().UnicastPath(src, dst)
	if err != nil {
		return err
	}
	steps := stats.NewTable(fmt.Sprintf("Detour route %v -> %v with faulty router %v (D-XB = S-XB = %v)",
		src, dst, bad, mf.Policy().EffectiveDXB()), "step", "element", "rc", "out")
	for i, h := range path {
		steps.AddRow(i+1, h.String(), h.RC.String(), h.Out)
	}
	r.Tables = append(r.Tables, steps)

	cmp := stats.NewTable("Detour cost", "route", "elements", "packet latency (cycles)")
	cmp.AddRow("fault-free dimension order", directHops, directLat)
	cmp.AddRow("detour via D-XB", detourHops, detourLat)
	r.Tables = append(r.Tables, cmp)

	r.Pass = detourLat > directLat && detourHops > directHops
	r.Notef("the RC bit runs normal -> detour -> normal; the delivered packet is indistinguishable from a normal one")
	return nil
}

// fig9 builds the Fig. 9/10 machine and traffic at one broadcast offset.
func fig9(separate bool, offset, size int) (deadlock.Outcome, error) {
	cfg := core.Config{
		Shape:          geom.MustShape(4, 4),
		SXB:            geom.Coord{0, 0},
		StallThreshold: 256,
	}
	if separate {
		cfg.DXB = geom.Coord{0, 3}
		cfg.DXBSeparate = true
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return deadlock.Outcome{}, err
	}
	if err := m.AddFault(fault.RouterFault(geom.Coord{2, 1})); err != nil {
		return deadlock.Outcome{}, err
	}
	if _, err := m.Send(geom.Coord{0, 1}, geom.Coord{2, 2}, size); err != nil {
		return deadlock.Outcome{}, err
	}
	for i := 0; i < offset; i++ {
		m.Step()
	}
	if _, _, err := m.Broadcast(geom.Coord{3, 2}, size); err != nil {
		return deadlock.Outcome{}, err
	}
	return m.Run(runBudget), nil
}

// runE4 sweeps broadcast injection offsets in the D-XB != S-XB
// configuration. Shape criterion: some offsets deadlock (the paper's point:
// the configuration *allows* deadlock).
func runE4(r *Report, opt Options) error {
	maxOffset := 10
	if opt.Quick {
		maxOffset = 4
	}
	tbl := stats.NewTable("Detoured p2p (24 flits) + broadcast at offset, D-XB != S-XB",
		"offset", "outcome", "cycles")
	deadlocks := 0
	for off := 0; off <= maxOffset; off++ {
		out, err := fig9(true, off, 24)
		if err != nil {
			return err
		}
		if out.Deadlocked {
			deadlocks++
		}
		tbl.AddRow(off, outcomeWord(out), out.Cycle)
	}
	r.Tables = append(r.Tables, tbl)
	r.Pass = deadlocks > 0
	r.Notef("%d of %d offsets deadlock — the separate D-XB allows cyclic waiting between detour and broadcast", deadlocks, maxOffset+1)
	return nil
}

// runE5 is the deadlock-freedom sweep for the paper's scheme: identical
// traffic with D-XB = S-XB across faults, pairs, broadcast sources and
// offsets. Shape criterion: zero deadlocks, everything drains.
func runE5(r *Report, opt Options) error {
	tbl := stats.NewTable("Exhaustive fault x traffic sweep, D-XB = S-XB", "shape", "fault kind", "scenarios", "drained", "deadlocks")

	shapes := [][]int{{3, 3}, {4, 3}}
	offsets := []int{0, 2, 4, 6}
	if opt.Quick {
		shapes = [][]int{{3, 3}}
		offsets = []int{0, 3}
	}
	totalDeadlocks := 0
	allDrained := true
	for _, sh := range shapes {
		shape := geom.MustShape(sh...)
		var faults []fault.Fault
		shape.Enumerate(func(c geom.Coord) bool {
			faults = append(faults, fault.RouterFault(c))
			return true
		})
		for _, l := range shape.LinesAlong(0) {
			faults = append(faults, fault.XBFault(l))
		}
		for _, kindName := range []string{"router", "crossbar"} {
			// Flatten the fault x offset grid into independent cells and
			// fan them out; aggregation below walks the results in cell
			// order, so the table is identical at every parallelism level.
			type cell struct {
				f   fault.Fault
				off int
			}
			var cells []cell
			for _, f := range faults {
				if (f.Kind == fault.KindRouter) != (kindName == "router") {
					continue
				}
				for _, off := range offsets {
					cells = append(cells, cell{f, off})
				}
			}
			outs, err := sweepCells(opt, len(cells), func(i int) (deadlock.Outcome, error) {
				return e5Scenario(shape, cells[i].f, cells[i].off)
			})
			if err != nil {
				return err
			}
			drained, dl := 0, 0
			for _, o := range outs {
				if o.Drained {
					drained++
				}
				if o.Deadlocked {
					dl++
					totalDeadlocks++
				}
			}
			tbl.AddRow(shape.String(), kindName, len(cells), drained, dl)
			if drained != len(cells) {
				allDrained = false
			}
		}
	}
	r.Tables = append(r.Tables, tbl)
	r.Pass = totalDeadlocks == 0 && allDrained
	r.Notef("every scenario drains: detour and broadcast serialize at the same crossbar, leaving a single non-dimension-order point")
	return nil
}

// e5Scenario runs one fault + mixed-traffic scenario under the unified
// scheme: every deliverable detour-class pair plus one broadcast.
func e5Scenario(shape geom.Shape, f fault.Fault, offset int) (deadlock.Outcome, error) {
	m, err := core.NewMachine(core.Config{Shape: shape, StallThreshold: 256})
	if err != nil {
		return deadlock.Outcome{}, err
	}
	if err := m.AddFault(f); err != nil {
		return deadlock.Outcome{}, err
	}
	// Inject a spread of point-to-point packets, preferring ones that detour.
	sent := 0
	shape.Enumerate(func(src geom.Coord) bool {
		shape.Enumerate(func(dst geom.Coord) bool {
			if src == dst {
				return true
			}
			p, err := m.Policy().UnicastPath(src, dst)
			if err != nil {
				return true // unreachable pairs are out of scope here
			}
			detours := false
			for _, h := range p {
				if h.RC != 0 {
					detours = true
				}
			}
			if detours || (shape.Index(src)+shape.Index(dst))%7 == 0 {
				if _, err := m.Send(src, dst, 16); err == nil {
					sent++
				}
			}
			return true
		})
		return true
	})
	for i := 0; i < offset; i++ {
		m.Step()
	}
	// One broadcast from the first healthy PE that can reach the S-XB.
	sentBroadcast := false
	shape.Enumerate(func(c geom.Coord) bool {
		if m.Alive(c) {
			_, _, err := m.Broadcast(c, 16)
			sentBroadcast = err == nil
		}
		return !sentBroadcast
	})
	if !sentBroadcast {
		return deadlock.Outcome{}, fmt.Errorf("E5 %s fault %v: no live PE's broadcast was accepted", shape, f)
	}
	return m.Run(runBudget), nil
}
