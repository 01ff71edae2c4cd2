//go:build !race

package reconfig

// Allocation budget for one reconfiguration attempt (the race detector
// instruments allocations, hence the build tag). The prover used to format
// and hash a channel name per hop of every pair, three walks over; what is
// left is a few allocations per *channel* — its name, its successor set —
// plus the fan decisions' output lists and the refused pairs' errors.

import (
	"runtime"
	"testing"
)

func TestAttemptAllocationBudget(t *testing.T) {
	const budget = 5_000 // 156 000 before the prover was integer-keyed; about 3 500 now
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
