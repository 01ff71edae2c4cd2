package topo

import (
	"fmt"

	"sr2201/internal/engine"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// This file builds the direct-link lattice network shared by the HyperX
// and full-mesh schemes: one router per lattice point, each paired with a
// PE, and within every axis-aligned line a direct bidirectional link
// between every pair of routers (per-dimension all-to-all). The full mesh
// is the 1-dimensional instance; HyperX generalizes it to d dimensions —
// the direct descendant of the paper's MD crossbar with the shared
// per-line crossbar switch replaced by point-to-point links.
//
// Port conventions (the contract every Router scheme relies on):
//
//	router at coordinate c: for dim k, one port per other value v ≠ c[k]
//	  on c's dim-k line, laid out dimension-major and by ascending v —
//	  PortOf/PortTarget map between (dim, v) and port index;
//	port PEPort(shape) (the last port) ↔ the PE at c;
//	PE at c: port 0 ↔ its router's PE port.

// RouterMeta is attached to router nodes.
type RouterMeta struct {
	Coord geom.Coord
}

// PEMeta is attached to PE endpoint nodes.
type PEMeta struct {
	Coord geom.Coord
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
	// Route decides the forwarding at the router at c for header h
	// arriving on port in.
	Route(c geom.Coord, in int, h *flit.Header) (engine.Decision, error)
}

// PortCount returns the number of ports on every router: one per
// same-line neighbor across all dimensions, plus the PE port.
func PortCount(shape geom.Shape) int {
	total := 1
	for _, e := range shape {
		total += e - 1
	}
	return total
}

// PEPort returns the router port wired to the local PE (the last port).
func PEPort(shape geom.Shape) int { return PortCount(shape) - 1 }

// PortOf returns the port on the router at c that leads to the router at
// value v of dimension dim on c's line. Panics if v == c[dim]: there is
// no self-link.
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

// PortTarget inverts PortOf: the (dim, value) a router port leads to.
// Panics on the PE port or out-of-range ports.
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

// NewNet constructs PEs, routers, and per-dimension all-to-all links for
// the given shape. A Router scheme must be installed with SetScheme
// before any packet is injected.
func NewNet(eng *engine.Engine, shape geom.Shape) *Net {
	net := &Net{Shape: shape, Eng: eng}
	d := shape.Dims()
	ports := PortCount(shape)
	pePort := PEPort(shape)

	route := func(n *engine.Node, in int, h *flit.Header) (engine.Decision, error) {
		if net.scheme == nil {
			return engine.Decision{}, fmt.Errorf("topo: no routing scheme installed")
		}
		return net.scheme.Route(n.Meta.(RouterMeta).Coord, in, h)
	}

	n := shape.Size()
	net.pes = make([]*engine.Node, n)
	net.routers = make([]*engine.Node, n)
	for i := 0; i < n; i++ {
		c := shape.CoordOf(i)
		net.pes[i] = eng.AddEndpoint("PE"+c.In(d), PEMeta{Coord: c})
		net.routers[i] = eng.AddSwitch("R"+c.In(d), ports, route, RouterMeta{Coord: c})
		eng.Connect(net.pes[i], 0, net.routers[i], pePort)
	}

	// Direct links: within each line, every pair of routers, wired once
	// per unordered pair (Connect is bidirectional).
	shape.Enumerate(func(c geom.Coord) bool {
		for dim := 0; dim < d; dim++ {
			for v := c[dim] + 1; v < shape[dim]; v++ {
				peer := c
				peer[dim] = v
				eng.Connect(net.Router(c), PortOf(shape, c, dim, v),
					net.Router(peer), PortOf(shape, peer, dim, c[dim]))
			}
		}
		return true
	})
	return net
}

// SetScheme installs the routing scheme used by every router.
func (net *Net) SetScheme(s Router) { net.scheme = s }

// Scheme returns the installed routing scheme (nil before SetScheme).
func (net *Net) Scheme() Router { return net.scheme }

// PE returns the endpoint node of the PE at c.
func (net *Net) PE(c geom.Coord) *engine.Node { return net.pes[net.Shape.Index(c)] }

// Router returns the router node at c.
func (net *Net) Router(c geom.Coord) *engine.Node { return net.routers[net.Shape.Index(c)] }

// PEs returns all PE endpoints in Shape.Index order.
func (net *Net) PEs() []*engine.Node { return net.pes }
