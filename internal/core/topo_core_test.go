package core

import (
	"errors"
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
)

// TestTopoMachineAllPairs: the direct-link machines deliver every ordered
// pair exactly once, like the crossbar machine does.
func TestTopoMachineAllPairs(t *testing.T) {
	cases := []struct {
		topology string
		shape    geom.Shape
	}{
		{"hyperx", geom.MustShape(3, 3)},
		{"fullmesh", geom.MustShape(8)},
	}
	for _, tc := range cases {
		t.Run(tc.topology, func(t *testing.T) {
			m := mustMachine(t, Config{Shape: tc.shape, Topology: tc.topology, StallThreshold: 64})
			if m.Topology() != tc.topology {
				t.Fatalf("Topology() = %q", m.Topology())
			}
			want := 0
			tc.shape.Enumerate(func(src geom.Coord) bool {
				tc.shape.Enumerate(func(dst geom.Coord) bool {
					if src == dst {
						return true
					}
					if _, err := m.Send(src, dst, 4); err != nil {
						t.Fatalf("send %v->%v: %v", src, dst, err)
					}
					want++
					return true
				})
				return true
			})
			if out := m.Run(100_000); !out.Drained {
				t.Fatalf("outcome %+v", out)
			}
			got := map[geom.Coord]int{}
			for _, d := range m.Deliveries() {
				got[d.At]++
			}
			for c, n := range got {
				if n != tc.shape.Size()-1 {
					t.Errorf("PE %v consumed %d, want %d", c, n, tc.shape.Size()-1)
				}
			}
			if len(m.Deliveries()) != want {
				t.Errorf("delivered %d, want %d", len(m.Deliveries()), want)
			}
		})
	}
}

// TestTopoConfigRejections: crossbar-only fault kinds and operations are
// rejected on direct-link topologies, and vice versa. (The crossbar-only
// config knobs are rows of the knob table, internal/jobs TestKnobRejections.)
func TestTopoConfigRejections(t *testing.T) {
	shape2d := geom.MustShape(4, 4)
	hx := mustMachine(t, Config{Shape: shape2d, Topology: "hyperx", StallThreshold: 64})
	if err := hx.AddFault(fault.XBFault(geom.LineOf(geom.Coord{0, 0}, 0))); err == nil {
		t.Error("crossbar fault accepted on hyperx")
	}
	if _, _, err := hx.Broadcast(geom.Coord{0, 0}, 4); err == nil {
		t.Error("hardware broadcast accepted on hyperx")
	}
	if err := hx.UseCompiledTables(); err == nil {
		t.Error("compiled tables accepted on hyperx")
	}
	xb := mustMachine(t, Config{Shape: shape2d, StallThreshold: 64})
	if err := xb.AddFault(fault.LinkFault(geom.Coord{0, 0}, geom.Coord{1, 0})); err == nil {
		t.Error("link fault accepted on mdx")
	}
}

// TestTopoLinkFaultDetourAndRefusal: a single in-line link fault is
// detoured on HyperX; on the full mesh the detour-order rule makes traffic
// into destination 1 over a faulty link a statically predicted refusal.
func TestTopoLinkFaultDetourAndRefusal(t *testing.T) {
	hx := mustMachine(t, Config{Shape: geom.MustShape(4, 4), Topology: "hyperx", StallThreshold: 64})
	if err := hx.AddFault(fault.LinkFault(geom.Coord{0, 0}, geom.Coord{3, 0})); err != nil {
		t.Fatal(err)
	}
	if _, err := hx.Send(geom.Coord{0, 0}, geom.Coord{3, 0}, 4); err != nil {
		t.Fatalf("detourable pair refused: %v", err)
	}
	if out := hx.Run(10_000); !out.Drained {
		t.Fatalf("outcome %+v", out)
	}
	if n := len(hx.Deliveries()); n != 1 {
		t.Fatalf("delivered %d, want 1", n)
	}

	fm := mustMachine(t, Config{Shape: geom.MustShape(8), Topology: "fullmesh", StallThreshold: 64})
	if err := fm.AddFault(fault.LinkFault(geom.Coord{3}, geom.Coord{1})); err != nil {
		t.Fatal(err)
	}
	// Destination 1 sits at the bottom of the detour order: no admissible
	// intermediate exists, so the pair is refused, not deadlocked.
	if _, err := fm.Send(geom.Coord{3}, geom.Coord{1}, 4); !errors.Is(err, routing.ErrUnreachable) {
		t.Fatalf("3->1 over faulty link: %v, want ErrUnreachable", err)
	}
	if err := fm.Reachable(geom.Coord{3}, geom.Coord{1}); !errors.Is(err, routing.ErrUnreachable) {
		t.Fatalf("Reachable(3,1) = %v, want ErrUnreachable", err)
	}
	// Any other destination detours fine over the same fault.
	if _, err := fm.Send(geom.Coord{1}, geom.Coord{3}, 4); err != nil {
		t.Fatalf("1->3 should detour: %v", err)
	}
	if out := fm.Run(10_000); !out.Drained {
		t.Fatalf("outcome %+v", out)
	}
}

// TestTopoStateHashPins: the direct-link machines reach a pinned engine
// state under a fixed shift workload (values recorded when the same run was
// asserted identical at 1, 2 and 4 spatial shards).
func TestTopoStateHashPins(t *testing.T) {
	for _, tc := range []struct {
		topology string
		shape    geom.Shape
		want     uint64
	}{
		{"hyperx", geom.MustShape(4, 4), 0xb04909e3565c7b32},
		{"fullmesh", geom.MustShape(12), 0x236e203bd8bf94a2},
	} {
		t.Run(tc.topology, func(t *testing.T) {
			m := mustMachine(t, Config{Shape: tc.shape, Topology: tc.topology, StallThreshold: 64})
			tc.shape.Enumerate(func(src geom.Coord) bool {
				dst := tc.shape.CoordOf((tc.shape.Index(src) + 5) % tc.shape.Size())
				if dst != src {
					if _, err := m.Send(src, dst, 4); err != nil {
						t.Fatalf("send %v->%v: %v", src, dst, err)
					}
				}
				return true
			})
			if out := m.Run(10_000); !out.Drained {
				t.Fatalf("outcome %+v", out)
			}
			if h := m.Engine().StateHash(); h != tc.want {
				t.Errorf("final hash %016x, want %016x", h, tc.want)
			}
		})
	}
}
