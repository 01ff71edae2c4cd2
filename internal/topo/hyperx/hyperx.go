// Package hyperx implements fault-tolerant dimension-order routing on the
// HyperX topology: a d-dimensional lattice in which every axis-aligned
// line is a complete graph of direct router-to-router links — the direct
// descendant of the paper's MD crossbar, with each shared per-line
// crossbar switch replaced by per-pair links (arXiv 2404.04315 studies
// this family; the concrete detour-ordering rule below is this repo's
// own, chosen so the CDG prover certifies it, and deviations from the
// published scheme are documented in DESIGN.md §11).
//
// Routing is dimension-ordered: correct dimension 0 first, then 1, and so
// on. Within a dimension the packet normally takes the single direct link
// from its current in-line offset a to the destination offset t. When
// that link is marked faulty, the router detours through an in-line
// intermediate m — a two-hop substitute a→m→t — chosen under an ordering
// constraint that keeps the channel dependence graph acyclic for any
// static link-fault set:
//
//	rank(x) = x for x > 0, rank(0) = extent (offset 0 is the summit);
//	m is admissible iff rank(m) < rank(t) and both links a–m, m–t are
//	healthy; the admissible m with the smallest offset is chosen.
//
// Every in-line dependence edge (a→m)→(m→t) then strictly increases the
// destination rank, and cross-dimension edges strictly increase the
// dimension, so the combined lexicographic rank (dim, rank) proves
// acyclicity — the prover re-derives exactly this from the registered
// graph. The price is bounded coverage: a destination offset of minimal
// rank (t = 1) admits no intermediate, so a faulty link into it refuses
// the pair (ErrUnreachable) rather than risking a cycle; the H-series
// experiments price that refusal rate. Faulty routers are not detoured:
// dimension order must land on offset t of the current line, so a dead
// router there (waypoint or destination) refuses the pair.
package hyperx

import (
	"fmt"

	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/topo"
)

func init() {
	topo.Register(topo.Registration{
		Name: "hyperx",
		Canonical: func() (topo.Scheme, error) {
			return New(geom.MustShape(4, 4), nil)
		},
		New: func(shape geom.Shape, faults *fault.Set) (topo.Router, error) {
			return New(shape, faults)
		},
		Faults: true,
	})
}

// Scheme is one HyperX routing instance: a shape plus a fault set.
type Scheme struct {
	shape  geom.Shape
	faults *fault.Set // nil means fault-free
}

// New validates the shape and builds the scheme. Every extent must be at
// least 2 (an extent-1 dimension has no links to route over), and a
// non-nil fault set must be built for the same shape.
func New(shape geom.Shape, faults *fault.Set) (*Scheme, error) {
	if shape.Dims() < 1 {
		return nil, fmt.Errorf("hyperx: shape must have at least one dimension")
	}
	for k, e := range shape {
		if e < 2 {
			return nil, fmt.Errorf("hyperx: shape %s: extent[%d]=%d below minimum 2", shape, k, e)
		}
	}
	if faults != nil && !faults.Shape().Equal(shape) {
		return nil, fmt.Errorf("hyperx: faults built for shape %s, scheme shape %s", faults.Shape(), shape)
	}
	return &Scheme{shape: shape, faults: faults}, nil
}

// Name identifies the instance, e.g. "hyperx-4x4".
func (s *Scheme) Name() string { return "hyperx-" + s.shape.String() }

// Shape returns the lattice shape.
func (s *Scheme) Shape() geom.Shape { return s.shape }

// Wiring is the per-line all-to-all layout.
func (s *Scheme) Wiring() topo.Wiring { return topo.AllToAll(s.shape) }

// Faults returns the scheme's fault set (nil when fault-free).
func (s *Scheme) Faults() *fault.Set { return s.faults }

// RegisterDependences walks every pair and records the route dependences.
func (s *Scheme) RegisterDependences(b *topo.Builder) error {
	return topo.RegisterUnicastDependences(b, s)
}

func (s *Scheme) routerFaulty(c geom.Coord) bool {
	return s.faults != nil && s.faults.RouterFaulty(c)
}

func (s *Scheme) linkFaulty(a, b geom.Coord) bool {
	return s.faults != nil && s.faults.LinkFaulty(a, b)
}

// rank is the in-line detour order: offset 0 is the summit (rank =
// extent), everything else ranks by its own offset.
func rank(extent, x int) int {
	if x == 0 {
		return extent
	}
	return x
}

// Route decides the forwarding at the router at c. It consults only
// link-local fault bits of c's own lines (the paper's neighbor-bits
// discipline carried over to direct links), never a global map; a dead
// router on the dimension-order path surfaces as a refusal at the hop
// that would enter it.
func (s *Scheme) Route(c geom.Coord, in int, h *flit.Header) (engine.Decision, error) {
	if s.routerFaulty(c) {
		return engine.Decision{}, fmt.Errorf("%w: router %s is faulty", topo.ErrUnreachable, c)
	}
	dst := h.Dst
	k := c.FirstDiff(dst, s.shape.Dims())
	if k < 0 {
		return engine.Decision{Outs: []int{topo.PEPort(s.shape)}}, nil
	}
	a, t := c[k], dst[k]
	target := c
	target[k] = t
	if s.routerFaulty(target) {
		return engine.Decision{}, fmt.Errorf("%w: router %s on the dimension-order path of %s->%s is faulty",
			topo.ErrUnreachable, target, h.Src, dst)
	}
	if !s.linkFaulty(c, target) {
		return engine.Decision{Outs: []int{topo.PortOf(s.shape, c, k, t)}}, nil
	}
	// Ordered two-hop detour within the line.
	extent := s.shape[k]
	for m := 0; m < extent; m++ {
		if m == a || m == t || rank(extent, m) >= rank(extent, t) {
			continue
		}
		mid := c
		mid[k] = m
		if s.routerFaulty(mid) || s.linkFaulty(c, mid) || s.linkFaulty(mid, target) {
			continue
		}
		return engine.Decision{Outs: []int{topo.PortOf(s.shape, c, k, m)}}, nil
	}
	return engine.Decision{}, fmt.Errorf("%w: link %s-%s faulty and no admissible detour (rank(t)=%d)",
		topo.ErrUnreachable, c, target, rank(extent, t))
}
