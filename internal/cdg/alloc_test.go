//go:build !race

package cdg

// Allocation pin for a whole proof (the race detector instruments
// allocations, hence the build tag). A graph interns channels by number and
// names none unless a cycle witness reads it, edges go to one flat list, and
// the unicast memo and the walk scratch are a few slices per graph: what is
// left is a fixed number of allocations per proof, not per channel or pair.

import "testing"

func TestAnalyzeAllocationPin(t *testing.T) {
	// 26 442 when every channel was named and kept its own successor set.
	// A refused walk formats no text and the scheme is named without fmt,
	// so no printer pool that a GC can empty sits in the proof: the count is
	// exact.
	const pin = 96
	tc := analyzeCases()[0] // 8x8x8-escape
	p := tc.machine(t).Policy()
	allocs := testing.AllocsPerRun(5, func() {
		if res, err := Analyze(p, tc.cfg.Shape, false); err != nil || !res.Acyclic {
			t.Fatalf("Analyze: %+v, %v", res, err)
		}
	})
	if allocs != pin {
		t.Errorf("cdg.Analyze on %s: %.0f allocations, pin %d", tc.name, allocs, pin)
	}
}
