package topo

import (
	"fmt"

	"sr2201/internal/engine"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// This file builds the direct-link lattice network every Router scheme
// runs on: one router per lattice point, each paired with a PE, cabled
// the way the scheme's Wiring says. HyperX and the full mesh share the
// per-line all-to-all layout (AllToAll below) — the direct descendant of
// the paper's MD crossbar with the shared per-line crossbar switch
// replaced by point-to-point links; the mesh and torus baselines of
// internal/topo/grid state a nearest-neighbour layout of their own.

// RouterMeta is attached to router nodes.
type RouterMeta struct {
	Coord geom.Coord
}

// PEMeta is attached to PE endpoint nodes.
type PEMeta struct {
	Coord geom.Coord
}

// Wiring is how a scheme's routers are cabled. Every router has the same
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

// Net is a fully wired direct-link lattice network.
type Net struct {
	Shape geom.Shape
	Eng   *engine.Engine

	pes     []*engine.Node // by Shape.Index
	routers []*engine.Node // by Shape.Index

	scheme Router
}

// NewNet constructs PEs and routers for the scheme's shape, cables them as
// its Wiring says, and installs the scheme on every router.
func NewNet(eng *engine.Engine, s Router) *Net {
	shape, w := s.Shape(), s.Wiring()
	net := &Net{Shape: shape, Eng: eng, scheme: s}
	d := shape.Dims()
	ports, lanes := w.Ports(), w.Lanes()

	route := func(n *engine.Node, in int, h *flit.Header) (engine.Decision, error) {
		return net.scheme.Route(n.Meta.(RouterMeta).Coord, in, h)
	}

	n := shape.Size()
	net.pes = make([]*engine.Node, n)
	net.routers = make([]*engine.Node, n)
	for i := 0; i < n; i++ {
		c := shape.CoordOf(i)
		net.pes[i] = eng.AddEndpoint("PE"+c.In(d), PEMeta{Coord: c})
		net.routers[i] = eng.AddSwitch("R"+c.In(d), ports, route, RouterMeta{Coord: c})
		eng.Connect(net.pes[i], 0, net.routers[i], ports-1)
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

// SetScheme replaces the routing scheme used by every router — the same
// family rebound to a changed fault set; the wiring stays as built.
func (net *Net) SetScheme(s Router) { net.scheme = s }

// Scheme returns the installed routing scheme.
func (net *Net) Scheme() Router { return net.scheme }

// PE returns the endpoint node of the PE at c.
func (net *Net) PE(c geom.Coord) *engine.Node { return net.pes[net.Shape.Index(c)] }

// Router returns the router node at c.
func (net *Net) Router(c geom.Coord) *engine.Node { return net.routers[net.Shape.Index(c)] }

// PEs returns all PE endpoints in Shape.Index order.
func (net *Net) PEs() []*engine.Node { return net.pes }
