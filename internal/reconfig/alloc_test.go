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

	"sr2201/internal/fault"
	"sr2201/internal/geom"
)

func TestAttemptAllocationBudget(t *testing.T) {
	// 156 000 before the prover was integer-keyed, 3 245 while every fan
	// decision allocated its list and every source walked the whole fan,
	// 1 532 while every channel was named and kept its own successor set,
	// 106 while the attempt and the commit each took a census of the
	// in-flight packets in a map keyed per flit, 84 while an attempt that
	// changes no route still took the census and committed; 70 now, and 99
	// when it is the first attempt a process makes (one-time
	// initialisation).
	const budget = 101
	m, mgr, f := attemptRig(t)
	var before, after runtime.MemStats
	failAround(t, m, mgr, f, OutcomeUnchanged, func(attempt func()) {
		runtime.ReadMemStats(&before)
		attempt()
		runtime.ReadMemStats(&after)
	})
	if allocs := after.Mallocs - before.Mallocs; allocs > budget {
		t.Errorf("one Manager.attempt on 6x6 with a wave in flight: %d allocations, budget %d", allocs, budget)
	}
}

// TestHotSwapAllocationBudget pins a committed swap on attemptRig's
// machine: router (1,0) dies on the S line instead, so the lines move, the
// attempt takes its census, adds the retiring generation's edge lists to
// the union and commits.
func TestHotSwapAllocationBudget(t *testing.T) {
	// 344 now, and 373 when it is the first attempt a process makes.
	const budget = 380
	m, mgr, _ := attemptRig(t)
	var before, after runtime.MemStats
	failAround(t, m, mgr, fault.RouterFault(geom.Coord{1, 0}), OutcomeHotSwap, func(attempt func()) {
		runtime.ReadMemStats(&before)
		attempt()
		runtime.ReadMemStats(&after)
	})
	if allocs := after.Mallocs - before.Mallocs; allocs > budget {
		t.Errorf("one hot-swapping Manager.attempt on 6x6 with a wave in flight: %d allocations, budget %d", allocs, budget)
	}
}

// TestFallbackAllocationBudget pins the fallback path on the cyclic-union
// rig: two candidates built and certified, the union proof against the
// retiring separate-D-XB generation's edges, and a commit with an empty
// census, which installs the chosen candidate the attempt already built.
func TestFallbackAllocationBudget(t *testing.T) {
	// 670-672 while the fallback compiled the current variant once more
	// (682 in the first fallback a process makes), 668 (680) while every
	// channel name of the retiring generation's edge lists, which cdg sorts
	// by name, took a string per part; 390 now (395-398 in the first
	// fallback a process makes).
	const budget = 410
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
