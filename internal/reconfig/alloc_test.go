//go:build !race

package reconfig

// Allocation budget for one reconfiguration attempt (the race detector
// instruments allocations, hence the build tag). The prover used to format
// and hash a channel name per hop of every pair, three walks over, and then
// a name and a successor set per channel. Now a channel is interned by
// number and named only for a cycle witness, edges go to one flat list, a
// unicast walk stops at the first state its destination already saw, and an
// unchanged graph is certified once; what is left is a few slices per graph,
// the refused walks' errors and the machine's own generation bookkeeping.

import (
	"runtime"
	"testing"
)

func TestAttemptAllocationBudget(t *testing.T) {
	// 156 000 before the prover was integer-keyed, 3 245 while every fan
	// decision allocated its list and every source walked the whole fan,
	// 1 532 while every channel was named and kept its own successor set,
	// 106 while the attempt and the commit each took a census of the
	// in-flight packets in a map keyed per flit; 84 now, and 113 when it is
	// the first attempt a process makes (one-time initialisation).
	const budget = 115
	m, mgr, f := attemptRig(t)
	var before, after runtime.MemStats
	failAround(t, m, mgr, f, OutcomeHotSwap, func(attempt func()) {
		runtime.ReadMemStats(&before)
		attempt()
		runtime.ReadMemStats(&after)
	})
	if allocs := after.Mallocs - before.Mallocs; allocs > budget {
		t.Errorf("one Manager.attempt on 6x6 with a wave in flight: %d allocations, budget %d", allocs, budget)
	}
}

// TestFallbackAllocationBudget pins the fallback path on the cyclic-union
// rig: two candidates built and certified, the union proof against the
// retiring separate-D-XB generation's edges, and a commit with an empty
// census, which installs the current variant's recompile the attempt
// already built and compiles no second policy.
func TestFallbackAllocationBudget(t *testing.T) {
	// 670-672 while the fallback compiled the current variant once more
	// (682 in the first fallback a process makes); 668 now (680). About
	// half is the retiring generation's edge lists, whose channels cdg
	// names inside a sort comparator.
	const budget = 690
	m, mgr, f := cyclicUnionRig(t)
	var before, after runtime.MemStats
	failAround(t, m, mgr, f, OutcomeFallback, func(attempt func()) {
		runtime.ReadMemStats(&before)
		attempt()
		runtime.ReadMemStats(&after)
	})
	if allocs := after.Mallocs - before.Mallocs; allocs > budget {
		t.Errorf("one falling-back Manager.attempt on 4x4 with both classes in flight: %d allocations, budget %d", allocs, budget)
	}
}
