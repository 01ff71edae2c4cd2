package core_test

import (
	"sync/atomic"
	"testing"

	"sr2201/internal/experiments"
)

// TestExperimentCyclePins pins the simulated cycles two whole experiments
// consume at -quick scale, summed over their sweep cells as Options.OnCell
// reports them. The counts are a pure function of the specs — E6 drives the
// crossbar, the torus and the mesh, E11 the 3-D machines up to 2048 PEs — so
// any change to a machine builder, a routing decision or the driver that
// moves a single cycle shows here. They are the deterministic columns of the
// BENCH_core.json ledger, which this test replaces.
func TestExperimentCyclePins(t *testing.T) {
	for id, want := range map[string]int64{"E6": 46_749, "E11": 585} {
		e, ok := experiments.ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		var cycles atomic.Int64
		r, err := e.Run(experiments.Options{Quick: true, Parallel: 2, OnCell: func(c int64) { cycles.Add(c) }})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !r.Pass {
			t.Errorf("%s failed its shape criterion", id)
		}
		if got := cycles.Load(); got != want {
			t.Errorf("%s simulated %d cycles, want %d", id, got, want)
		}
	}
}
