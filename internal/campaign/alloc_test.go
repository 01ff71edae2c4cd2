//go:build !race

package campaign

// Allocation pin for one campaign cell the size of serve-mixed's (the race
// detector instruments allocations, hence the build tag).

import (
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
)

func TestRunCellAllocations(t *testing.T) {
	// A cell of a serve-mixed campaign: 4x4, eight shift+5 waves 22 cycles
	// apart, and a router that fails a few cycles into the fourth. Building
	// the machine made most of its 433 allocations: a name, a boxed meta
	// and a few handles per node, a heap object per route state and header,
	// and source queues and per-cycle lists grown by doubling. With names
	// cut from one string, metas in typed arrays, and slabs and lists sized
	// once per machine, 111 are left, most of them the traffic's own (112
	// in about one run of thirty).
	const pin = 112
	spec := Spec{
		Shape:   geom.MustShape(4, 4),
		Events:  []inject.Event{{Cycle: 3*22 + 4, Fault: fault.RouterFault(geom.Coord{1, 2})}},
		Pattern: Shift(5),
		Waves:   8,
		Gap:     22,
		Horizon: 50_000,
	}
	run := func() {
		if _, err := RunCell(spec); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(5, run); allocs > pin {
		t.Errorf("RunCell on a serve-mixed cell: %v allocations, want at most %v", allocs, pin)
	}
}
