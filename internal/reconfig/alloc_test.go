//go:build !race

package reconfig

// Allocation budget for one reconfiguration attempt (the race detector
// instruments allocations, hence the build tag). The prover used to format
// and hash a channel name per hop of every pair, three walks over; what is
// left is a few allocations per *channel* — its name, its successor set —
// plus the refused pairs' errors. Fan decisions hand out shared output
// lists, and a graph walks the broadcast fan once, not once per source.

import (
	"runtime"
	"testing"
)

func TestAttemptAllocationBudget(t *testing.T) {
	// 156 000 before the prover was integer-keyed, 3 245 while every fan
	// decision allocated its list and every source walked the whole fan;
	// 1 532 now, plus 10 %.
	const budget = 1_690
	m, mgr, f := attemptRig(t)
	var before, after runtime.MemStats
	failAround(t, m, mgr, f, func(attempt func()) {
		runtime.ReadMemStats(&before)
		attempt()
		runtime.ReadMemStats(&after)
	})
	if allocs := after.Mallocs - before.Mallocs; allocs > budget {
		t.Errorf("one Manager.attempt on 6x6 with a wave in flight: %d allocations, budget %d", allocs, budget)
	}
}
