package core

import (
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/geom"
)

// The full machine — dimension-order traffic, serialized broadcasts and
// detours all at once — must preserve every kernel conservation
// invariant on every cycle.
func TestMachineInvariantsUnderMixedTraffic(t *testing.T) {
	m := mustMachine(t, Config{Shape: geom.MustShape(4, 4), StallThreshold: 256})
	if err := m.AddFault(fault.XBFault(geom.LineOf(geom.Coord{2, 0}, 1))); err != nil {
		t.Fatal(err)
	}
	// Mixed workload: normal sends, two broadcasts.
	shape := m.Shape()
	shape.Enumerate(func(src geom.Coord) bool {
		dst := shape.CoordOf((shape.Index(src) + 5) % shape.Size())
		_, _ = m.Send(src, dst, 6) // some refused (faulty column) — fine
		return true
	})
	if _, _, err := m.Broadcast(geom.Coord{1, 1}, 6); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Broadcast(geom.Coord{3, 3}, 6); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if m.Engine().Quiescent() {
			break
		}
		m.Step()
		if err := m.Engine().CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", m.Cycle(), err)
		}
	}
	if !m.Engine().Quiescent() {
		t.Fatal("mixed workload did not drain in 400 cycles")
	}
}

// The same audit on a 3D machine with a router fault and a detour in flight.
func TestMachineInvariants3D(t *testing.T) {
	m := mustMachine(t, Config{Shape: geom.MustShape(3, 3, 3), StallThreshold: 256})
	bad := geom.Coord{1, 1, 1}
	if err := m.AddFault(fault.RouterFault(bad)); err != nil {
		t.Fatal(err)
	}
	// A detour-inducing pair: turn router after dim 0 is the fault.
	if _, err := m.Send(geom.Coord{0, 1, 1}, geom.Coord{1, 2, 1}, 8); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Broadcast(geom.Coord{2, 2, 2}, 8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if m.Engine().Quiescent() {
			break
		}
		m.Step()
		if err := m.Engine().CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", m.Cycle(), err)
		}
	}
	if !m.Engine().Quiescent() {
		t.Fatal("3D workload did not drain")
	}
	detoured := false
	for _, d := range m.Deliveries() {
		if d.Detoured {
			detoured = true
		}
	}
	if !detoured {
		t.Error("no detoured delivery recorded")
	}
}

// 4-dimensional machines exercise the generalized broadcast and routing
// order end to end.
func TestMachine4D(t *testing.T) {
	m := mustMachine(t, Config{Shape: geom.MustShape(2, 3, 2, 3), StallThreshold: 256})
	if _, err := m.Send(geom.Coord{0, 0, 0, 0}, geom.Coord{1, 2, 1, 2}, 4); err != nil {
		t.Fatal(err)
	}
	if _, covered, err := m.Broadcast(geom.Coord{1, 1, 1, 1}, 4); err != nil {
		t.Fatal(err)
	} else if covered != 36 {
		t.Fatalf("4D broadcast covers %d", covered)
	}
	out := m.Run(50_000)
	if !out.Drained {
		t.Fatalf("outcome %+v", out)
	}
	if len(m.Deliveries()) != 37 {
		t.Errorf("deliveries = %d", len(m.Deliveries()))
	}
	if err := m.Engine().CheckInvariants(); err != nil {
		t.Error(err)
	}
}
