// Package fullmesh implements deadlock-free fault-tolerant routing on the
// full mesh — n routers, every pair joined by a direct link — without
// virtual channels (the setting of arXiv 2510.14730; the concrete
// ordering rule below is this repo's own, chosen so the CDG prover
// certifies it, with deviations documented in DESIGN.md §11).
//
// The healthy route is always the single direct hop. When the direct link
// a–t is faulty, the source detours through an intermediate m (a two-hop
// substitute a→m→t). Deadlock-freedom without VCs comes entirely from an
// ordering constraint on the intermediate:
//
//	rank(x) = x for x > 0, rank(0) = n (node 0 is the summit);
//	m is admissible iff rank(m) < rank(t) and both links a–m, m–t are
//	healthy; the admissible m with the smallest index is chosen.
//
// Every dependence edge (a→m)→(m→t) then strictly increases the
// destination rank of the channel, so the channel dependence graph is
// acyclic for any static link-fault set — the prover re-derives exactly
// this. The cost is one uncovered destination: t = 1 has minimal rank and
// admits no intermediate, so a faulty link into node 1 refuses the pair
// (ErrUnreachable) instead of risking a cycle.
//
// NewUnordered builds the deliberately broken variant used to refute the
// construction: it drops the rank constraint and picks the intermediate
// counting down from t-1. On K4 with faulty links 0–2 and 1–3 its four
// detours chain into the cycle (0→1)→(1→2)→(2→3)→(3→0)→(0→1), and the
// prover reports exactly that witness.
package fullmesh

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
		Name: "fullmesh",
		Canonical: func() (topo.Scheme, error) {
			return New(8, nil)
		},
		New: func(shape geom.Shape, faults *fault.Set) (topo.Router, error) {
			if shape.Dims() != 1 {
				return nil, fmt.Errorf("fullmesh needs a one-dimensional shape, got %s", shape)
			}
			return New(shape[0], faults)
		},
		Faults: true,
	})
}

// Scheme is one full-mesh routing instance: an order n plus a fault set.
type Scheme struct {
	n         int
	shape     geom.Shape
	faults    *fault.Set // nil means fault-free
	unordered bool
}

// New validates the order and builds the (sound, rank-ordered) scheme.
// n must be at least 2; a non-nil fault set must be built for the
// one-dimensional shape {n}.
func New(n int, faults *fault.Set) (*Scheme, error) {
	return build(n, faults, false)
}

// NewUnordered builds the deliberately broken variant: the detour
// intermediate is chosen without the rank-ordering constraint. It exists
// to demonstrate the prover refuting an unsound scheme with a concrete
// cycle witness; never route real traffic over it.
func NewUnordered(n int, faults *fault.Set) (*Scheme, error) {
	return build(n, faults, true)
}

func build(n int, faults *fault.Set, unordered bool) (*Scheme, error) {
	if n < 2 {
		return nil, fmt.Errorf("fullmesh: order n=%d below minimum 2", n)
	}
	shape := geom.MustShape(n)
	if faults != nil && !faults.Shape().Equal(shape) {
		return nil, fmt.Errorf("fullmesh: faults built for shape %s, scheme shape %s", faults.Shape(), shape)
	}
	return &Scheme{n: n, shape: shape, faults: faults, unordered: unordered}, nil
}

// Name identifies the instance, e.g. "fullmesh-8" or
// "fullmesh-unordered-4".
func (s *Scheme) Name() string {
	if s.unordered {
		return fmt.Sprintf("fullmesh-unordered-%d", s.n)
	}
	return fmt.Sprintf("fullmesh-%d", s.n)
}

// Shape returns the one-dimensional lattice shape {n}.
func (s *Scheme) Shape() geom.Shape { return s.shape }

// Wiring is the all-to-all layout of the single line.
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

// rank is the detour order: node 0 is the summit (rank = n), everything
// else ranks by its own index.
func (s *Scheme) rank(x int) int {
	if x == 0 {
		return s.n
	}
	return x
}

// Route decides the forwarding at the router at c. Like the HyperX
// scheme it consults only the router's own link/neighbor fault bits.
func (s *Scheme) Route(c geom.Coord, in int, h *flit.Header) (engine.Decision, error) {
	if s.routerFaulty(c) {
		return engine.Decision{}, fmt.Errorf("%w: router %s is faulty", topo.ErrUnreachable, c)
	}
	a, t := c[0], h.Dst[0]
	if a == t {
		return engine.Decision{Outs: []int{topo.PEPort(s.shape)}}, nil
	}
	target := geom.Coord{t}
	if s.routerFaulty(target) {
		return engine.Decision{}, fmt.Errorf("%w: destination router %s is faulty", topo.ErrUnreachable, target)
	}
	if !s.linkFaulty(c, target) {
		return engine.Decision{Outs: []int{topo.PortOf(s.shape, c, 0, t)}}, nil
	}
	if s.unordered {
		// Broken variant: first healthy intermediate counting down from
		// t-1, no ordering constraint.
		for i := 1; i < s.n; i++ {
			m := ((t-i)%s.n + s.n) % s.n
			if m == a || m == t {
				continue
			}
			mid := geom.Coord{m}
			if s.routerFaulty(mid) || s.linkFaulty(c, mid) || s.linkFaulty(mid, target) {
				continue
			}
			return engine.Decision{Outs: []int{topo.PortOf(s.shape, c, 0, m)}}, nil
		}
		return engine.Decision{}, fmt.Errorf("%w: link %s-%s faulty and no healthy intermediate",
			topo.ErrUnreachable, c, target)
	}
	// Ordered two-hop detour.
	for m := 0; m < s.n; m++ {
		if m == a || m == t || s.rank(m) >= s.rank(t) {
			continue
		}
		mid := geom.Coord{m}
		if s.routerFaulty(mid) || s.linkFaulty(c, mid) || s.linkFaulty(mid, target) {
			continue
		}
		return engine.Decision{Outs: []int{topo.PortOf(s.shape, c, 0, m)}}, nil
	}
	return engine.Decision{}, fmt.Errorf("%w: link %s-%s faulty and no admissible detour (rank(t)=%d)",
		topo.ErrUnreachable, c, target, s.rank(t))
}
