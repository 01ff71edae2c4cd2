package core

import (
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/geom"
)

// fig9Machine builds the paper Fig. 9 configuration: S-XB and D-XB on
// different dim-0 lines, one faulty router positioned so the point-to-point
// packet below must detour.
func fig9Machine(t *testing.T, separate bool) *Machine {
	t.Helper()
	cfg := Config{
		Shape:          geom.MustShape(4, 4),
		SXB:            geom.Coord{0, 0},
		StallThreshold: 128,
	}
	if separate {
		cfg.DXB = geom.Coord{0, 3}
		cfg.DXBSeparate = true
	}
	m := mustMachine(t, cfg)
	if err := m.AddFault(fault.RouterFault(geom.Coord{2, 1})); err != nil {
		t.Fatal(err)
	}
	return m
}

// fig9Traffic injects the deadlock-prone combination: a long detoured
// point-to-point packet and, offset cycles later, a broadcast whose fan-out
// needs the channels the detour is holding.
func fig9Traffic(t *testing.T, m *Machine, offset int) {
	t.Helper()
	if _, err := m.Send(geom.Coord{0, 1}, geom.Coord{2, 2}, 24); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < offset; i++ {
		m.Step()
	}
	if _, _, err := m.Broadcast(geom.Coord{3, 2}, 24); err != nil {
		t.Fatal(err)
	}
}

// Paper Fig. 9: with D-XB != S-XB, a simultaneous broadcast and detoured
// point-to-point packet form a cyclic wait. The deadlock is timing-dependent
// (Section 5: changing the routing "allows deadlock to occur") — later
// broadcast offsets let the detour clear first.
func TestFig9DeadlockWithSeparateDXB(t *testing.T) {
	m := fig9Machine(t, true)
	fig9Traffic(t, m, 0)
	out := m.Run(100_000)
	if !out.Stalled {
		t.Fatalf("expected stall, got %+v (delivered %d)", out, len(m.Deliveries()))
	}
	if !out.Deadlocked {
		t.Fatalf("stall not confirmed as cyclic wait:\n%s", out.Report.Describe())
	}
	if len(m.Deliveries()) != 0 {
		t.Errorf("delivered %d before wedging", len(m.Deliveries()))
	}
	// A late-enough broadcast dodges the window: same configuration drains.
	m2 := fig9Machine(t, true)
	fig9Traffic(t, m2, 8)
	if out := m2.Run(100_000); !out.Drained {
		t.Errorf("offset-8 run should drain, got %+v", out)
	}
}

// Paper Fig. 10: the identical traffic with D-XB = S-XB drains completely.
func TestFig10NoDeadlockWithUnifiedDXB(t *testing.T) {
	m := fig9Machine(t, false)
	fig9Traffic(t, m, 0)
	out := m.Run(100_000)
	if !out.Drained {
		t.Fatalf("outcome %+v\n%s", out, out.Report.Describe())
	}
	// One p2p delivery (detoured) plus a full broadcast minus the dead PE.
	wantBroadcast := m.Shape().Size() - 1
	var p2p, bcast int
	for _, d := range m.Deliveries() {
		if d.Broadcast {
			bcast++
		} else {
			p2p++
			if !d.Detoured {
				t.Error("p2p delivery not flagged as detoured")
			}
		}
	}
	if p2p != 1 || bcast != wantBroadcast {
		t.Errorf("p2p=%d bcast=%d (want 1, %d)", p2p, bcast, wantBroadcast)
	}
}

// The deadlock-freedom sweep behind the paper's Section 5 claim: for every
// single router fault, every detour-inducing point-to-point pair, every
// broadcast source and several injection offsets, the unified D-XB = S-XB
// scheme always drains. (The full sweep, including crossbar faults, runs in
// the experiment harness; this keeps a dense core in the test suite.)
func TestDeadlockFreeSweepFig10(t *testing.T) {
	shape := geom.MustShape(3, 3)
	runs := 0
	shape.Enumerate(func(bad geom.Coord) bool {
		shape.Enumerate(func(src geom.Coord) bool {
			if src == bad {
				return true
			}
			shape.Enumerate(func(dst geom.Coord) bool {
				if dst == bad || dst == src {
					return true
				}
				// Only pairs whose turn router is the fault detour; others
				// are plain dimension-order traffic — sample them sparsely.
				turn := geom.Coord{dst[0], src[1]}
				if turn != bad && (src[0]+dst[1])%3 != 0 {
					return true
				}
				for offset := 0; offset <= 4; offset += 2 {
					m := mustMachine(t, Config{Shape: shape, StallThreshold: 96})
					if err := m.AddFault(fault.RouterFault(bad)); err != nil {
						t.Fatal(err)
					}
					if _, err := m.Send(src, dst, 24); err != nil {
						// Unreachable pairs are allowed (documented).
						continue
					}
					for i := 0; i < offset; i++ {
						m.Step()
					}
					bsrc := geom.Coord{(src[0] + 1) % 3, (src[1] + 2) % 3}
					if bsrc != bad {
						if _, _, err := m.Broadcast(bsrc, 24); err != nil {
							t.Fatalf("fault %v bsrc %v: %v", bad, bsrc, err)
						}
					}
					out := m.Run(50_000)
					if !out.Drained {
						t.Fatalf("fault %v %v->%v offset %d: %+v\n%s", bad, src, dst, offset, out, out.Report.Describe())
					}
					runs++
				}
				return true
			})
			return true
		})
		return true
	})
	if runs < 100 {
		t.Fatalf("sweep ran only %d scenarios", runs)
	}
	t.Logf("sweep: %d scenarios, all drained", runs)
}
