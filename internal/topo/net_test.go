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
	net := hyperxNet(t, eng, shape)

	delivered := map[geom.Coord]int{}
	eng.OnDeliver = func(d engine.Delivery) {
		at := d.At.Meta.(*topo.PEMeta).Coord
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
			eng.InjectPacket(net.PE(src), flit.Header{Src: src, Dst: dst}, 4)
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
	net := hyperxNet(t, eng, shape)
	shape.Enumerate(func(src geom.Coord) bool {
		dst := shape.CoordOf((shape.Index(src) + 5) % shape.Size())
		if dst != src {
			eng.InjectPacket(net.PE(src), flit.Header{Src: src, Dst: dst}, 4)
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

// hyperxNet builds a fault-free HyperX network with its scheme installed.
func hyperxNet(t *testing.T, eng *engine.Engine, shape geom.Shape) *topo.Net {
	t.Helper()
	s, err := hyperx.New(shape, nil)
	if err != nil {
		t.Fatal(err)
	}
	net := topo.NewNet(eng, shape, s.Wiring())
	net.SetPolicy(topo.RouterPolicy(s))
	return net
}

// mdCrossbar builds the paper's network with vcs lanes per wire and no policy.
func mdCrossbar(vcs int, extents ...int) *topo.Net {
	shape := geom.MustShape(extents...)
	return topo.NewNet(engine.New(engine.DefaultConfig()), shape, topo.MDCrossbar{Shape: shape, VCs: vcs})
}

// TestMDCrossbarWiring: the port contract every MD-crossbar routing policy
// relies on. Router port k·V+v at c reaches lane v of the dim-k crossbar
// through c, entering at port c[k]·V+v; the last router port reaches the
// PE; crossbar port p·V+v of line l comes back to lane v of the router at
// l.Point(p); and with V > 1 the lanes of one wire share one physical
// channel at both ends.
func TestMDCrossbarWiring(t *testing.T) {
	for _, vcs := range []int{1, 2} {
		for _, extents := range [][]int{{4, 3}, {3, 2, 2}, {5}} {
			net := mdCrossbar(vcs, extents...)
			shape := net.Shape
			d := shape.Dims()
			shared := func(ports []*engine.OutPort) bool {
				for _, o := range ports {
					if (vcs == 1) != (o.Phys() == nil) || o.Phys() != ports[0].Phys() {
						return false
					}
				}
				return true
			}
			shape.Enumerate(func(c geom.Coord) bool {
				rtr := net.Router(c)
				if len(rtr.In) != d*vcs+1 || len(rtr.Out) != d*vcs+1 || net.RouterPortPE() != d*vcs {
					t.Fatalf("V=%d %v: router has %d ports, want %d", vcs, extents, len(rtr.In), d*vcs+1)
				}
				for k := 0; k < d; k++ {
					xb := net.XB(geom.LineOf(c, k))
					for v := 0; v < vcs; v++ {
						down := rtr.Out[k*vcs+v].DownstreamIn()
						if down == nil || down.Node() != xb || down.Index() != c[k]*vcs+v {
							t.Fatalf("V=%d %v: router %v port %d misconnected", vcs, extents, c, k*vcs+v)
						}
					}
					if !shared(rtr.Out[k*vcs : (k+1)*vcs]) {
						t.Fatalf("V=%d %v: router %v dim-%d lanes not one physical channel", vcs, extents, c, k)
					}
				}
				if pe := rtr.Out[d*vcs].DownstreamIn(); pe == nil || pe.Node() != net.PE(c) || pe.Index() != 0 {
					t.Fatalf("V=%d %v: router %v PE port misconnected", vcs, extents, c)
				}
				return true
			})
			for k := 0; k < d; k++ {
				for _, l := range shape.LinesAlong(k) {
					xb := net.XB(l)
					if len(xb.In) != shape[k]*vcs {
						t.Fatalf("V=%d %v: %s has %d ports, want %d", vcs, extents, xb.Name, len(xb.In), shape[k]*vcs)
					}
					for p := 0; p < shape[k]; p++ {
						for v := 0; v < vcs; v++ {
							down := xb.Out[p*vcs+v].DownstreamIn()
							if down == nil || down.Node() != net.Router(l.Point(p)) || down.Index() != k*vcs+v {
								t.Fatalf("V=%d %v: %s port %d misconnected", vcs, extents, xb.Name, p*vcs+v)
							}
						}
						if !shared(xb.Out[p*vcs : (p+1)*vcs]) {
							t.Fatalf("V=%d %v: %s wire %d lanes not one physical channel", vcs, extents, xb.Name, p)
						}
					}
				}
			}
		}
	}
}

// TestMDCrossbarNaming: the node names every StateHash stream and -topports
// line carries.
func TestMDCrossbarNaming(t *testing.T) {
	net := mdCrossbar(1, 4, 3)
	c := geom.Coord{2, 1}
	for _, tc := range []struct{ got, want string }{
		{net.PE(c).Name, "PE(2,1)"},
		{net.Router(c).Name, "RTC(2,1)"},
		{net.XB(geom.LineOf(c, 0)).Name, "XB0(0,1)"},
		{net.XB(geom.LineOf(c, 1)).Name, "XB1(2,0)"},
	} {
		if tc.got != tc.want {
			t.Errorf("node name %q, want %q", tc.got, tc.want)
		}
	}
}

// TestMDCrossbarCounts: the switch and port totals E10 tabulates.
func TestMDCrossbarCounts(t *testing.T) {
	net := mdCrossbar(1, 4, 3)
	if net.RouterPortPE() != 2 {
		t.Errorf("PE port = %d", net.RouterPortPE())
	}
	if r, x := net.SwitchCount(); r != 12 || x != 3+4 {
		t.Errorf("switch count = %d routers, %d crossbars", r, x)
	}
	// 12 routers x 3 ports + 3 dim-0 crossbars x 4 + 4 dim-1 crossbars x 3.
	if got := net.PortCount(); got != 12*3+3*4+4*3 {
		t.Errorf("port count = %d", got)
	}
	// Two lanes double every router↔crossbar port; the PE port stays single.
	if got := mdCrossbar(2, 4, 3).PortCount(); got != 12*5+3*8+4*6 {
		t.Errorf("V=2 port count = %d", got)
	}
}

// TestNoPolicyDrops: a network without an installed policy drops an injected
// packet with a clear reason rather than wedging or panicking.
func TestNoPolicyDrops(t *testing.T) {
	shape := geom.MustShape(2, 2)
	eng := engine.New(engine.DefaultConfig())
	net := topo.NewNet(eng, shape, topo.MDCrossbar{Shape: shape, VCs: 1})
	if net.Policy() != nil {
		t.Fatal("policy non-nil before SetPolicy")
	}
	var reason string
	eng.OnDrop = func(d engine.Drop) { reason = d.Reason }
	eng.InjectPacket(net.PE(geom.Coord{0, 0}), flit.Header{PacketID: 1, Dst: geom.Coord{1, 1}}, 2)
	if !eng.RunUntilQuiescent(1000) {
		t.Fatal("did not drain")
	}
	if !strings.Contains(reason, "no routing policy") {
		t.Errorf("drop reason = %q", reason)
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

// brokenXB lets the walker tests feed pathological crossbar-wiring decisions.
type brokenXB struct {
	router, xb func(in int) []int
}

func (b brokenXB) RouteRouter(_ *topo.Net, _ geom.Coord, in int, _ *flit.Header) (engine.Decision, error) {
	return engine.Decision{Outs: b.router(in)}, nil
}

func (b brokenXB) RouteXB(_ *topo.Net, _ geom.Line, in int, _ *flit.Header) (engine.Decision, error) {
	return engine.Decision{Outs: b.xb(in)}, nil
}

// TestWalkRejectsBrokenSchemes: the walker reports looping, misdelivering
// and replicating schemes as hard errors, on cabled and crossbar wirings
// alike, and propagates refusals as ErrUnreachable.
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
	toXB := func(int) []int { return []int{0} }
	for _, tc := range []struct {
		name string
		p    brokenXB
		want string
	}{
		{"crossbar loop", brokenXB{toXB, func(in int) []int { return []int{(in + 1) % shape[0]} }}, "exceeded"},
		{"crossbar replication", brokenXB{toXB, func(int) []int { return []int{0, 1} }}, "outputs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := topo.NewWalker(shape, topo.MDCrossbar{Shape: shape, VCs: 1}, tc.p)
			if err := w.Unicast(&flit.Header{Src: geom.Coord{0}, Dst: geom.Coord{2}}, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
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

// TestChannelOfRoundTrip: Walker.ChannelOf numbers every switch out-port of
// a Net as the walker numbers its channels — each port a distinct (channel,
// lane), every channel's lane 0 a port, Port inverting the number to the
// port's switch, lanes beyond 0 only where a crossbar wiring's channel counts
// wires — and a PE's out-port is no channel.
func TestChannelOfRoundTrip(t *testing.T) {
	direct := func(name string, shape geom.Shape) topo.Wiring {
		reg, _ := topo.Lookup(name)
		s, err := reg.New(shape, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s.Wiring()
	}
	for _, tc := range []struct {
		name   string
		shape  geom.Shape
		wiring topo.Wiring
	}{
		{"mdx", geom.MustShape(4, 3), topo.MDCrossbar{Shape: geom.MustShape(4, 3), VCs: 1}},
		{"mdx-vc4", geom.MustShape(3, 2, 2), topo.MDCrossbar{Shape: geom.MustShape(3, 2, 2), VCs: 4}},
		{"hyperx", geom.MustShape(3, 4), direct("hyperx", geom.MustShape(3, 4))},
		{"fullmesh", geom.MustShape(5), direct("fullmesh", geom.MustShape(5))},
		{"mesh", geom.MustShape(3, 3), direct("mesh", geom.MustShape(3, 3))},
		{"torus", geom.MustShape(4, 3), direct("torus", geom.MustShape(4, 3))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := topo.NewNet(engine.New(engine.DefaultConfig()), tc.shape, tc.wiring)
			w := topo.NewWalker(tc.shape, tc.wiring, nil)
			wires := 1 // engine ports per walker port
			if tc.wiring.Crossbars() {
				wires = tc.wiring.Lanes()
			}
			seen := map[[2]int]bool{}
			check := func(n *engine.Node, dim, index int) {
				for _, o := range n.Out {
					ch, lane, ok := w.ChannelOf(o)
					if !ok || ch < 0 || ch >= w.Channels() || lane >= wires {
						t.Fatalf("%s.out%d: ChannelOf = %d, %d, %v", n.Name, o.Index(), ch, lane, ok)
					}
					key := [2]int{int(ch), lane}
					if seen[key] {
						t.Fatalf("%s.out%d: (channel %d, lane %d) numbered twice", n.Name, o.Index(), ch, lane)
					}
					seen[key] = true
					gd, gi, gout := w.Port(ch)
					if gd != dim || gi != index || gout != o.Index()/wires {
						t.Errorf("%s.out%d: Port(%d) = (%d, %d, %d), want (%d, %d, %d)", n.Name, o.Index(), ch, gd, gi, gout, dim, index, o.Index()/wires)
					}
				}
			}
			tc.shape.Enumerate(func(c geom.Coord) bool {
				if _, _, ok := w.ChannelOf(net.PE(c).Out[0]); ok {
					t.Errorf("PE%s's injection port numbered as a channel", c)
				}
				check(net.Router(c), -1, tc.shape.Index(c))
				return true
			})
			if tc.wiring.Crossbars() {
				for dim := range tc.shape {
					for _, l := range tc.shape.LinesAlong(dim) {
						check(net.XB(l), dim, tc.shape.LineIndex(l))
					}
				}
			}
			for ch := int32(0); ch < w.Channels(); ch++ {
				if !seen[[2]int{int(ch), 0}] {
					t.Errorf("channel %s has no lane-0 port", w.Name(ch))
				}
			}
		})
	}
}

// TestNetSizeExact: the size NewNet reserves before it creates the first
// node is exactly what it builds — nodes, switch ports and links — on the
// MD crossbar with one and two lanes and on every registered direct-link
// wiring, each on the shapes it accepts, so the engine's columns are
// allocated once and none is left with unused room.
func TestNetSizeExact(t *testing.T) {
	type net struct {
		shape geom.Shape
		w     topo.Wiring
	}
	var nets []net
	for _, shape := range []geom.Shape{geom.MustShape(3, 4, 2), geom.MustShape(3, 4), geom.MustShape(5)} {
		nets = append(nets, net{shape, topo.MDCrossbar{Shape: shape, VCs: 1}}, net{shape, topo.MDCrossbar{Shape: shape, VCs: 2}})
		for _, r := range topo.Registered() {
			if r.New == nil {
				continue // not a direct-link lattice (mdx, escape)
			}
			if s, err := r.New(shape, nil); err == nil {
				nets = append(nets, net{shape, s.Wiring()})
			}
		}
	}
	for _, n := range nets {
		eng := engine.New(engine.DefaultConfig())
		topo.NewNet(eng, n.shape, n.w)
		got := engine.Size{Switches: len(eng.Switches()), Endpoints: len(eng.Endpoints())}
		for _, node := range append(eng.Switches(), eng.Endpoints()...) {
			if node.Kind == engine.KindSwitch {
				got.SwitchPorts += len(node.In)
			}
			for _, o := range node.Out {
				if o.DownstreamIn() != nil {
					got.Links++
				}
			}
		}
		if want := topo.NetSize(n.shape, n.w); got != want {
			t.Errorf("%T on %v (%d lanes): built %+v, reserved %+v", n.w, n.shape, n.w.Lanes(), got, want)
		}
	}
	if len(nets) < 10 {
		t.Fatalf("only %d networks built", len(nets))
	}
}

// TestNodeNames: NewNet cuts every node's name from one string, and the
// names are byte for byte those formatting each node on its own gives — the
// engine's topology hash, and with it every snapshot, covers them. Each
// node's meta is the coordinate or line it was built for. Shapes of one to
// three dimensions, two-digit coordinates among them, on the MD crossbar
// and every registered direct-link wiring.
func TestNodeNames(t *testing.T) {
	in := func(c geom.Coord, d int) string {
		parts := make([]string, d)
		for i := range parts {
			parts[i] = fmt.Sprint(c[i])
		}
		return "(" + strings.Join(parts, ",") + ")"
	}
	built := 0
	for _, shape := range []geom.Shape{geom.MustShape(12), geom.MustShape(11, 3), geom.MustShape(3, 4, 2)} {
		wirings := []topo.Wiring{topo.MDCrossbar{Shape: shape, VCs: 1}}
		for _, r := range topo.Registered() {
			if r.New == nil {
				continue // not a direct-link lattice (mdx, escape)
			}
			if s, err := r.New(shape, nil); err == nil {
				wirings = append(wirings, s.Wiring())
			}
		}
		d := shape.Dims()
		for _, w := range wirings {
			eng := engine.New(engine.DefaultConfig())
			net := topo.NewNet(eng, shape, w)
			router := "R"
			if w.Crossbars() {
				router = "RTC"
			}
			want := 0
			shape.Enumerate(func(c geom.Coord) bool {
				pe, r := net.PE(c), net.Router(c)
				if got := pe.Name; got != "PE"+in(c, d) {
					t.Errorf("%T on %v: PE at %v named %q", w, shape, c, got)
				}
				if got := r.Name; got != router+in(c, d) {
					t.Errorf("%T on %v: router at %v named %q", w, shape, c, got)
				}
				if pe.Meta.(*topo.PEMeta).Coord != c || r.Meta.(*topo.RouterMeta).Coord != c {
					t.Errorf("%T on %v: PE and router at %v carry metas %+v and %+v", w, shape, c, pe.Meta, r.Meta)
				}
				want += 2
				return true
			})
			for _, l := range shape.Lines() {
				if !w.Crossbars() {
					break
				}
				xb := net.XB(l)
				if got := xb.Name; got != fmt.Sprintf("XB%d%s", l.Dim, in(l.Fixed, d)) {
					t.Errorf("%T on %v: crossbar of %+v named %q", w, shape, l, got)
				}
				if xb.Meta.(*topo.XBMeta).Line != l {
					t.Errorf("%T on %v: crossbar of %+v carries meta %+v", w, shape, l, xb.Meta)
				}
				want++
			}
			if got := len(eng.Switches()) + len(eng.Endpoints()); got != want {
				t.Errorf("%T on %v: %d nodes built, %d named", w, shape, got, want)
			}
			built++
		}
	}
	if built < 6 {
		t.Fatalf("only %d networks built", built)
	}
}
