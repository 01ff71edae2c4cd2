package topo_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sr2201/internal/engine"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/topo"
	"sr2201/internal/topo/hyperx"
)

// TestPortMath: PortOf/PortTarget are inverse bijections between (dim,
// value) pairs and link ports, for every router of assorted shapes.
func TestPortMath(t *testing.T) {
	for _, extents := range [][]int{{4, 4}, {3, 2, 5}, {8}, {2, 2, 2, 2}} {
		shape := geom.MustShape(extents...)
		wantPorts := 1
		for _, e := range shape {
			wantPorts += e - 1
		}
		if got := topo.PortCount(shape); got != wantPorts {
			t.Errorf("%s: PortCount=%d, want %d", shape, got, wantPorts)
		}
		if got := topo.PEPort(shape); got != wantPorts-1 {
			t.Errorf("%s: PEPort=%d, want %d", shape, got, wantPorts-1)
		}
		shape.Enumerate(func(c geom.Coord) bool {
			seen := map[int]bool{}
			for dim := 0; dim < shape.Dims(); dim++ {
				for v := 0; v < shape[dim]; v++ {
					if v == c[dim] {
						continue
					}
					p := topo.PortOf(shape, c, dim, v)
					if p < 0 || p >= topo.PEPort(shape) {
						t.Fatalf("%s %s dim %d v %d: port %d outside link range", shape, c, dim, v, p)
					}
					if seen[p] {
						t.Fatalf("%s %s: port %d assigned twice", shape, c, p)
					}
					seen[p] = true
					gd, gv := topo.PortTarget(shape, c, p)
					if gd != dim || gv != v {
						t.Fatalf("%s %s: PortTarget(%d) = (%d,%d), want (%d,%d)", shape, c, p, gd, gv, dim, v)
					}
				}
			}
			if len(seen) != topo.PEPort(shape) {
				t.Fatalf("%s %s: %d link ports used, want %d", shape, c, len(seen), topo.PEPort(shape))
			}
			return true
		})
	}
}

// TestNetDeliversAllPairs wires a real engine network and pushes one packet
// through every ordered pair: a single miswired Connect would surface as a
// drop or a delivery at the wrong PE.
func TestNetDeliversAllPairs(t *testing.T) {
	shape := geom.MustShape(3, 3)
	eng := engine.New(engine.DefaultConfig())
	s, err := hyperx.New(shape, nil)
	if err != nil {
		t.Fatal(err)
	}
	net := topo.NewNet(eng, s)

	delivered := map[geom.Coord]int{}
	eng.OnDeliver = func(d engine.Delivery) {
		at := d.At.Meta.(topo.PEMeta).Coord
		if at != d.Header.Dst {
			t.Errorf("packet for %s delivered at %s", d.Header.Dst, at)
		}
		delivered[at]++
	}
	eng.OnDrop = func(d engine.Drop) {
		t.Errorf("drop at %s: %s", d.At.Name, d.Reason)
	}

	want := 0
	shape.Enumerate(func(src geom.Coord) bool {
		shape.Enumerate(func(dst geom.Coord) bool {
			if src == dst {
				return true
			}
			eng.InjectPacket(net.PE(src), &flit.Header{Src: src, Dst: dst}, 4)
			want++
			return true
		})
		return true
	})
	for i := 0; i < 10_000 && !eng.Quiescent(); i++ {
		eng.Step()
	}
	total := 0
	for c, n := range delivered {
		total += n
		if n != shape.Size()-1 {
			t.Errorf("PE %s consumed %d packets, want %d", c, n, shape.Size()-1)
		}
	}
	if total != want {
		t.Errorf("delivered %d packets, want %d", total, want)
	}
}

// TestNetStateHashPin: a raw engine network under a fixed shift workload
// drains to the same pinned state core.Machine reaches on the same lattice
// (core's TestTopoStateHashPins).
func TestNetStateHashPin(t *testing.T) {
	shape := geom.MustShape(4, 4)
	eng := engine.New(engine.DefaultConfig())
	s, err := hyperx.New(shape, nil)
	if err != nil {
		t.Fatal(err)
	}
	net := topo.NewNet(eng, s)
	shape.Enumerate(func(src geom.Coord) bool {
		dst := shape.CoordOf((shape.Index(src) + 5) % shape.Size())
		if dst != src {
			eng.InjectPacket(net.PE(src), &flit.Header{Src: src, Dst: dst}, 4)
		}
		return true
	})
	for i := 0; i < 10_000 && !eng.Quiescent(); i++ {
		eng.Step()
	}
	if !eng.Quiescent() {
		t.Fatal("network did not drain")
	}
	if h := eng.StateHash(); h != 0xb04909e3565c7b32 {
		t.Errorf("state hash %016x, want b04909e3565c7b32", h)
	}
}

// brokenRouter lets the walker tests feed pathological per-hop decisions.
type brokenRouter struct {
	shape geom.Shape
	route func(c geom.Coord, in int, h *flit.Header) (engine.Decision, error)
}

func (b brokenRouter) Name() string                               { return "broken" }
func (b brokenRouter) Shape() geom.Shape                          { return b.shape }
func (b brokenRouter) Wiring() topo.Wiring                        { return topo.AllToAll(b.shape) }
func (b brokenRouter) RegisterDependences(bb *topo.Builder) error { return nil }
func (b brokenRouter) Route(c geom.Coord, in int, h *flit.Header) (engine.Decision, error) {
	return b.route(c, in, h)
}

// TestWalkRejectsBrokenSchemes: the walker reports looping, misdelivering
// and replicating schemes as hard errors, and propagates refusals as
// ErrUnreachable.
func TestWalkRejectsBrokenSchemes(t *testing.T) {
	shape := geom.MustShape(4)
	pe := topo.PEPort(shape)
	cases := []struct {
		name  string
		route func(c geom.Coord, in int, h *flit.Header) (engine.Decision, error)
		want  string
	}{
		{
			name: "infinite loop",
			route: func(c geom.Coord, in int, h *flit.Header) (engine.Decision, error) {
				next := (c[0] + 1) % shape[0] // chase the ring forever
				return engine.Decision{Outs: []int{topo.PortOf(shape, c, 0, next)}}, nil
			},
			want: "exceeded",
		},
		{
			name: "wrong delivery",
			route: func(c geom.Coord, in int, h *flit.Header) (engine.Decision, error) {
				return engine.Decision{Outs: []int{pe}}, nil // deliver wherever we stand
			},
			want: "delivered at",
		},
		{
			name: "replication",
			route: func(c geom.Coord, in int, h *flit.Header) (engine.Decision, error) {
				return engine.Decision{Outs: []int{0, 1}}, nil
			},
			want: "outputs",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := topo.Walk(brokenRouter{shape: shape, route: tc.route}, geom.Coord{0}, geom.Coord{2})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err=%v, want mention of %q", err, tc.want)
			}
		})
	}
	refuse := brokenRouter{shape: shape, route: func(c geom.Coord, in int, h *flit.Header) (engine.Decision, error) {
		return engine.Decision{}, fmt.Errorf("%w: testing refusal", topo.ErrUnreachable)
	}}
	if _, err := topo.Walk(refuse, geom.Coord{0}, geom.Coord{2}); !errors.Is(err, topo.ErrUnreachable) {
		t.Errorf("refusal err=%v, want ErrUnreachable", err)
	}
}
