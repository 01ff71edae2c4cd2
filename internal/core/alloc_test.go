//go:build !race

package core_test

// Allocation pins for the kernel hot path (the race detector instruments
// allocations, hence the build tag). What they leave out is what is known to
// remain: a switch that rewrites the header (an RC transition, a counted
// detour or adaptive hop) clones it, once per such hop, and Broadcast builds
// its static tree per call.

import (
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
)

// pinMachine builds an 8x8 machine, optionally with a faulty router, and
// warms it: one drained round of traffic sizes the route-state pool, the
// engine's scratch slices and the endpoints' source queues.
func pinMachine(t *testing.T, faulty *geom.Coord) *core.Machine {
	t.Helper()
	m, err := core.NewMachine(core.Config{Shape: geom.MustShape(8, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if faulty != nil {
		if err := m.AddFault(fault.RouterFault(*faulty)); err != nil {
			t.Fatal(err)
		}
	}
	sendRound(t, m, 64)
	if out := m.Run(100_000); !out.Drained {
		t.Fatalf("warm-up round did not drain: %+v", out)
	}
	m.ResetStats()
	return m
}

// sendRound queues three packets of the given size at every live PE, to
// destinations spread over the machine (those the routing refuses are
// skipped: the faulty router's own PE, and pairs a single detour cannot
// serve).
func sendRound(t *testing.T, m *core.Machine, size int) {
	t.Helper()
	shape := m.Shape()
	n := shape.Size()
	for i := 0; i < n; i++ {
		for _, hop := range []int{9, 27, 38} {
			src, dst := shape.CoordOf(i), shape.CoordOf((i+hop)%n)
			if m.Reachable(src, dst) != nil {
				continue
			}
			if _, err := m.Send(src, dst, size); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestStepAllocatesNothing(t *testing.T) {
	// Steady state on a loaded fault-free machine: headers are routed, ports
	// arbitrated, flits moved, packets delivered — and nothing is allocated.
	m := pinMachine(t, nil)
	sendRound(t, m, 64)
	eng := m.Engine()
	eng.OnDeliver = nil // "no hooks": the machine's delivery log grows as it records
	for i := 0; i < 20; i++ {
		eng.Step()
	}
	if allocs := testing.AllocsPerRun(100, eng.Step); allocs != 0 {
		t.Errorf("Engine.Step on a loaded 8x8: %v allocations per cycle, want 0", allocs)
	}
	if eng.Quiescent() {
		t.Fatal("the machine drained before the measurement ended: it was not loaded throughout")
	}
}

func TestStepAllocatesNothingWithDetoursInFlight(t *testing.T) {
	// The same with a faulty router and detoured packets streaming through
	// their circuits. Packets are long, and the measurement starts once the
	// headers have made their RC transitions (each of which clones the
	// header, the cost this PR leaves): what is pinned is that carrying
	// flits along a detour costs what carrying them anywhere does, nothing.
	faulty := geom.Coord{3, 3}
	m := pinMachine(t, &faulty)
	// Row 3 to column 3, the dimension-order turn at the faulty router.
	detoured := 0
	m.OnDeliver = func(d core.Delivery) {
		if d.Detoured {
			detoured++
		}
	}
	for x := 0; x < 8; x++ {
		if x == 3 {
			continue
		}
		if _, err := m.Send(geom.Coord{x, 3}, geom.Coord{3, 1 + x%2*4}, 600); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Send(geom.Coord{x, 5}, geom.Coord{(x + 2) % 8, 6}, 600); err != nil {
			t.Fatal(err)
		}
	}
	eng := m.Engine()
	hook := eng.OnDeliver
	eng.OnDeliver = nil
	for i := 0; i < 200; i++ {
		eng.Step()
	}
	if allocs := testing.AllocsPerRun(100, eng.Step); allocs != 0 {
		t.Errorf("Engine.Step with detours in flight: %v allocations per cycle, want 0", allocs)
	}
	if eng.Quiescent() {
		t.Fatal("the machine drained before the measurement ended")
	}
	eng.OnDeliver = hook
	if out := m.Run(100_000); !out.Drained {
		t.Fatalf("did not drain: %+v", out)
	}
	if detoured == 0 {
		t.Fatal("no delivered packet had detoured: the scenario does not exercise the detour path")
	}
}

func TestSendAllocatesOnlyTheHeader(t *testing.T) {
	// Send's reachability precheck replays the routing decisions without
	// collecting a path or allocating a probe header, detour or not.
	faulty := geom.Coord{3, 3}
	for _, tc := range []struct {
		name   string
		faulty *geom.Coord
	}{{"fault-free", nil}, {"faulted", &faulty}} {
		t.Run(tc.name, func(t *testing.T) {
			m := pinMachine(t, tc.faulty)
			i := 0
			send := func() {
				// Row 3 to column 3 turns at (3,3): detoured when it is faulty.
				x := []int{0, 1, 2, 4, 5, 6, 7}[i%7]
				i++
				if _, err := m.Send(geom.Coord{x, 3}, geom.Coord{3, 1 + x%2*4}, 1); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(14, send); allocs > 1 {
				t.Errorf("Machine.Send: %v allocations per packet, want at most 1 (the header)", allocs)
			}
			if err := m.Reachable(geom.Coord{0, 3}, geom.Coord{3, 7}); err != nil {
				t.Fatal(err)
			}
			reach := func() { _ = m.Reachable(geom.Coord{0, 3}, geom.Coord{3, 7}) }
			if allocs := testing.AllocsPerRun(50, reach); allocs != 0 {
				t.Errorf("Machine.Reachable on a served pair: %v allocations, want 0", allocs)
			}
		})
	}
}
