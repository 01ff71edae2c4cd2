package topo

import (
	"errors"
	"fmt"

	"sr2201/internal/engine"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// This file builds every network a machine runs on: one router per lattice
// point, each paired with a PE, cabled the way a Wiring says. The paper's
// MD crossbar (MDCrossbar) switches every axis-aligned line through one
// shared crossbar; HyperX and the full mesh share the per-line all-to-all
// layout (AllToAll) — the same lattice with each crossbar replaced by
// point-to-point links; the mesh and torus baselines of internal/topo/grid
// state a nearest-neighbour layout of their own.

// RouterMeta is attached to router nodes.
type RouterMeta struct {
	Coord geom.Coord
}

// XBMeta is attached to crossbar nodes.
type XBMeta struct {
	Line geom.Line
}

// PEMeta is attached to PE endpoint nodes.
type PEMeta struct {
	Coord geom.Coord
}

// Wiring is how a network's routers are cabled. Every router has the same
// number of ports; the last one leads to the router's own PE (whose port 0
// leads back), the others are link ports.
type Wiring interface {
	// Ports is the number of ports on every router, PE port included.
	Ports() int
	// Lanes is how many consecutive link ports share one physical wire —
	// virtual channels with a combined bandwidth of one flit per cycle. 1
	// means every port is a wire of its own. Lane i of a wire is cabled to
	// lane i of the wire's far end.
	Lanes() int
	// Peer returns the router and port that link port `port` of the router
	// at c is cabled to; ok is false for a port left unconnected (a mesh
	// edge). The relation must be symmetric.
	Peer(c geom.Coord, port int) (peer geom.Coord, peerPort int, ok bool)
	// Crossbars reports that every axis-aligned line is switched through one
	// shared crossbar instead of router-to-router cables: with V = Lanes(),
	// router port k·V+v at c is cabled to lane v of the dim-k crossbar of
	// c's line, at that crossbar's port c[k]·V+v. Peer is then never asked.
	Crossbars() bool
}

// Router is a Scheme that also forwards packets hop by hop on the
// direct-link lattice: the dynamic counterpart of its registered
// dependence graph. Route must be deterministic and side-effect-free. A
// machine calls it only from the one goroutine stepping it; sweep steps
// distinct machines in parallel, so a scheme value shared between machines
// must hold no mutable state.
type Router interface {
	Scheme
	// Shape is the lattice shape the scheme routes over.
	Shape() geom.Shape
	// Wiring is the cabling the scheme's port numbers refer to. It depends
	// on the shape only, never on the fault set.
	Wiring() Wiring
	// Route decides the forwarding at the router at c for header h
	// arriving on port in.
	Route(c geom.Coord, in int, h *flit.Header) (engine.Decision, error)
}

// Policy makes the forwarding decisions of every switch of a Net. The MD
// crossbar's policies live in internal/routing; a direct-link Router is
// installed through RouterPolicy.
type Policy interface {
	// RouteRouter routes a header arriving at the router at c on port in.
	RouteRouter(net *Net, c geom.Coord, in int, h *flit.Header) (engine.Decision, error)
	// RouteXB routes a header arriving at the crossbar of line l on port in
	// (from the router at l.Point(in / Lanes())).
	RouteXB(net *Net, l geom.Line, in int, h *flit.Header) (engine.Decision, error)
}

// RouterPolicy adapts a direct-link Router to the Policy a Net runs.
func RouterPolicy(s Router) Policy { return routerPolicy{s} }

type routerPolicy struct{ s Router }

func (p routerPolicy) RouteRouter(_ *Net, c geom.Coord, in int, h *flit.Header) (engine.Decision, error) {
	return p.s.Route(c, in, h)
}

func (p routerPolicy) RouteXB(*Net, geom.Line, int, *flit.Header) (engine.Decision, error) {
	return engine.Decision{}, fmt.Errorf("topo: %s has no crossbars", p.s.Name())
}

// MDCrossbar is the paper's Section 3.1 wiring: each router is a
// (d+1)×(d+1) relay switch whose port k·VCs+v leads to lane v of the dim-k
// crossbar through it and whose last port leads to its PE, and every line's
// routers share one crossbar. VCs is the lane count per router↔crossbar
// wire; at 1 the layout is exactly the paper's single-channel network.
type MDCrossbar struct {
	Shape geom.Shape
	VCs   int
}

// Ports is one port per dimension and lane, plus the PE port.
func (w MDCrossbar) Ports() int { return w.Shape.Dims()*w.VCs + 1 }

// Lanes is the lane count per router↔crossbar wire.
func (w MDCrossbar) Lanes() int { return w.VCs }

// Peer reports no router-to-router cable: every line runs through a crossbar.
func (w MDCrossbar) Peer(geom.Coord, int) (geom.Coord, int, bool) { return geom.Coord{}, 0, false }

// Crossbars is true: one shared crossbar per line.
func (w MDCrossbar) Crossbars() bool { return true }

// AllToAll is the wiring HyperX and the full mesh share: within every
// axis-aligned line of the shape, a direct link between every pair of
// routers. The router at c has, for dim k, one port per other value
// v ≠ c[k] on c's dim-k line, laid out dimension-major and by ascending v;
// PortOf/PortTarget map between (dim, v) and the port index.
type AllToAll geom.Shape

// Ports is one port per same-line neighbor across all dimensions, plus
// the PE port.
func (w AllToAll) Ports() int { return PortCount(geom.Shape(w)) }

// Lanes is 1: no virtual channels.
func (w AllToAll) Lanes() int { return 1 }

// Peer follows a link port to the other end of its line.
func (w AllToAll) Peer(c geom.Coord, port int) (geom.Coord, int, bool) {
	dim, v := PortTarget(geom.Shape(w), c, port)
	peer := c.WithDim(dim, v)
	return peer, PortOf(geom.Shape(w), peer, dim, c[dim]), true
}

// Crossbars is false: every pair on a line has its own link.
func (w AllToAll) Crossbars() bool { return false }

// PortCount returns the number of ports on every all-to-all router: one
// per same-line neighbor across all dimensions, plus the PE port.
func PortCount(shape geom.Shape) int {
	total := 1
	for _, e := range shape {
		total += e - 1
	}
	return total
}

// PEPort returns the all-to-all router port wired to the local PE (the
// last port).
func PEPort(shape geom.Shape) int { return PortCount(shape) - 1 }

// PortOf returns the port on the all-to-all router at c that leads to the
// router at value v of dimension dim on c's line. Panics if v == c[dim]:
// there is no self-link.
func PortOf(shape geom.Shape, c geom.Coord, dim, v int) int {
	if v == c[dim] {
		panic(fmt.Sprintf("topo: no self-link at %s dim %d", c, dim))
	}
	base := 0
	for k := 0; k < dim; k++ {
		base += shape[k] - 1
	}
	if v < c[dim] {
		return base + v
	}
	return base + v - 1
}

// PortTarget inverts PortOf: the (dim, value) an all-to-all router port
// leads to. Panics on the PE port or out-of-range ports.
func PortTarget(shape geom.Shape, c geom.Coord, port int) (dim, v int) {
	rel := port
	for k, e := range shape {
		if rel < e-1 {
			if rel >= c[k] {
				rel++
			}
			return k, rel
		}
		rel -= e - 1
	}
	panic(fmt.Sprintf("topo: port %d of router %s is not a link port", port, c))
}

// Net is a fully wired lattice network.
type Net struct {
	Shape geom.Shape

	wiring  Wiring
	pes     []*engine.Node   // by Shape.Index
	routers []*engine.Node   // by Shape.Index
	xbs     [][]*engine.Node // [dim][Shape.LineIndex]; nil without crossbars
	policy  Policy
}

var errNoPolicy = errors.New("topo: no routing policy installed")

// NewNet constructs the PEs, routers and (on a crossbar wiring) crossbars of
// the shape and cables them as the wiring says. A Policy must be installed
// with SetPolicy before any packet is injected; until then every header is
// dropped.
func NewNet(eng *engine.Engine, shape geom.Shape, w Wiring) *Net {
	net := &Net{Shape: shape, wiring: w}
	d := shape.Dims()
	ports, lanes := w.Ports(), w.Lanes()

	routeRouter := func(n *engine.Node, in int, h *flit.Header) (engine.Decision, error) {
		if net.policy == nil {
			return engine.Decision{}, errNoPolicy
		}
		return net.policy.RouteRouter(net, n.Meta.(RouterMeta).Coord, in, h)
	}
	routeXB := func(n *engine.Node, in int, h *flit.Header) (engine.Decision, error) {
		if net.policy == nil {
			return engine.Decision{}, errNoPolicy
		}
		return net.policy.RouteXB(net, n.Meta.(XBMeta).Line, in, h)
	}

	router := "R"
	if w.Crossbars() {
		router = "RTC"
	}
	n := shape.Size()
	net.pes = make([]*engine.Node, n)
	net.routers = make([]*engine.Node, n)
	for i := 0; i < n; i++ {
		c := shape.CoordOf(i)
		net.pes[i] = eng.AddEndpoint("PE"+c.In(d), PEMeta{Coord: c})
		net.routers[i] = eng.AddSwitch(router+c.In(d), ports, routeRouter, RouterMeta{Coord: c})
		eng.Connect(net.pes[i], 0, net.routers[i], ports-1)
	}

	if w.Crossbars() {
		// One crossbar per line, each wire's lanes cabled port for port to the
		// router at its point.
		net.xbs = make([][]*engine.Node, d)
		for dim := 0; dim < d; dim++ {
			lines := shape.LinesAlong(dim)
			net.xbs[dim] = make([]*engine.Node, len(lines))
			for _, l := range lines {
				xb := eng.AddSwitch(fmt.Sprintf("XB%d%s", dim, l.Fixed.In(d)), shape[dim]*lanes, routeXB, XBMeta{Line: l})
				net.xbs[dim][shape.LineIndex(l)] = xb
				for p := 0; p < shape[dim]; p++ {
					rtc := net.Router(l.Point(p))
					for v := 0; v < lanes; v++ {
						eng.Connect(xb, p*lanes+v, rtc, dim*lanes+v)
					}
					if lanes > 1 {
						eng.SharePhysical(xb.Out[p*lanes : (p+1)*lanes]...)
						eng.SharePhysical(rtc.Out[dim*lanes : (dim+1)*lanes]...)
					}
				}
			}
		}
		return net
	}

	// Links: every cabled port, in router then port order, connected from
	// whichever end comes first (Connect is bidirectional); the lanes of a
	// wire share its one flit per cycle.
	for i, r := range net.routers {
		c := shape.CoordOf(i)
		for p := 0; p < ports-1; p++ {
			peer, pp, ok := w.Peer(c, p)
			if !ok {
				continue
			}
			if r.Out[p].DownstreamIn() == nil {
				eng.Connect(r, p, net.Router(peer), pp)
			}
			if lanes > 1 && p%lanes == 0 {
				eng.SharePhysical(r.Out[p : p+lanes]...)
			}
		}
	}
	return net
}

// SetPolicy installs the policy every switch routes by — on a direct-link
// network the same family rebound to a changed fault set; the wiring stays
// as built.
func (net *Net) SetPolicy(p Policy) { net.policy = p }

// Policy returns the installed policy (nil before SetPolicy).
func (net *Net) Policy() Policy { return net.policy }

// Wiring returns the cabling the network was built with.
func (net *Net) Wiring() Wiring { return net.wiring }

// PE returns the endpoint node of the PE at c.
func (net *Net) PE(c geom.Coord) *engine.Node { return net.pes[net.Shape.Index(c)] }

// Router returns the router node at c.
func (net *Net) Router(c geom.Coord) *engine.Node { return net.routers[net.Shape.Index(c)] }

// XB returns the crossbar node of line l; the wiring must have crossbars.
func (net *Net) XB(l geom.Line) *engine.Node { return net.xbs[l.Dim][net.Shape.LineIndex(l)] }

// RouterPortPE is the router port attached to the local PE.
func (net *Net) RouterPortPE() int { return net.wiring.Ports() - 1 }

// SwitchCount reports the number of switching elements, routers and
// crossbars, the structural-scaling experiment (E10) tabulates.
func (net *Net) SwitchCount() (routers, crossbars int) {
	for _, xs := range net.xbs {
		crossbars += len(xs)
	}
	return len(net.routers), crossbars
}

// PortCount reports the total number of switch ports, E10's proxy for
// hardware cost.
func (net *Net) PortCount() int {
	total := len(net.routers) * net.wiring.Ports()
	for _, xs := range net.xbs {
		for _, xb := range xs {
			total += len(xb.Out)
		}
	}
	return total
}
