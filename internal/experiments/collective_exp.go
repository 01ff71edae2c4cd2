package experiments

import (
	"fmt"

	"sr2201/internal/collective"
	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/stats"
)

func init() {
	register(Experiment{ID: "E12", Title: "Collectives on the interconnect", Paper: "Sec. 1/3 motivation", run: runE12})
}

// runE12 quantifies what the hardware broadcast buys the collective
// operations the paper's introduction motivates: allreduce as tree-reduce +
// one hardware broadcast versus n serialized broadcasts, across machine
// sizes, and the cost of running the same collective with a network fault.
// Shape criterion: the hardware-broadcast allreduce wins by a factor that
// grows with machine size, and a single fault costs exactly one participant
// while completing within 2x the fault-free time.
func runE12(r *Report, opt Options) error {
	sizes := [][]int{{4, 4}, {8, 8}, {16, 16}}
	if opt.Quick {
		sizes = [][]int{{4, 4}, {8, 8}}
	}
	tbl := stats.NewTable("E12 allreduce: tree-reduce + 1 hardware broadcast vs n broadcasts",
		"shape", "PEs", "allreduce cycles", "n-broadcast cycles", "speedup")
	var speedups []float64
	for _, extents := range sizes {
		shape := geom.MustShape(extents...)
		m, err := core.NewMachine(core.Config{Shape: shape, StallThreshold: 512})
		if err != nil {
			return err
		}
		res, err := collective.Allreduce(m, geom.Coord{}, 8)
		if err != nil {
			return err
		}
		m2, err := core.NewMachine(core.Config{Shape: shape, StallThreshold: 512})
		if err != nil {
			return err
		}
		start := m2.Cycle()
		var berr error
		shape.Enumerate(func(c geom.Coord) bool {
			if _, _, err := m2.Broadcast(c, 8); err != nil {
				berr = err
				return false
			}
			return true
		})
		if berr != nil {
			return berr
		}
		if out := m2.Run(runBudget); !out.Drained {
			return fmt.Errorf("E12: all-broadcast on %s did not drain", shape)
		}
		allB := m2.Cycle() - start
		speedup := float64(allB) / float64(res.Cycles)
		speedups = append(speedups, speedup)
		tbl.AddRow(shape.String(), shape.Size(), res.Cycles, allB, speedup)
	}
	r.Tables = append(r.Tables, tbl)

	// Fault impact on a fixed size.
	shape := geom.MustShape(8, 8)
	clean, err := core.NewMachine(core.Config{Shape: shape, StallThreshold: 512})
	if err != nil {
		return err
	}
	resClean, err := collective.Allreduce(clean, geom.Coord{}, 8)
	if err != nil {
		return err
	}
	faulted, err := core.NewMachine(core.Config{Shape: shape, StallThreshold: 512})
	if err != nil {
		return err
	}
	if err := faulted.AddFault(fault.RouterFault(geom.Coord{3, 4})); err != nil {
		return err
	}
	resFault, err := collective.Allreduce(faulted, geom.Coord{}, 8)
	if err != nil {
		return err
	}
	ftbl := stats.NewTable("E12 allreduce under a single router fault (8x8)",
		"config", "participants", "cycles", "messages", "copies")
	ftbl.AddRow("fault-free", resClean.Participants, resClean.Cycles, resClean.Messages, resClean.Copies)
	ftbl.AddRow("faulty RTC(3,4)", resFault.Participants, resFault.Cycles, resFault.Messages, resFault.Copies)
	r.Tables = append(r.Tables, ftbl)

	growing := true
	for i := 1; i < len(speedups); i++ {
		if speedups[i] <= speedups[i-1] {
			growing = false
		}
	}
	r.Pass = growing && speedups[0] > 1 &&
		resFault.Participants == shape.Size()-1 &&
		resFault.Cycles <= 2*resClean.Cycles
	r.Notef("one hardware broadcast replaces n serialized ones; a single fault costs one participant and bounded extra cycles")
	return nil
}
