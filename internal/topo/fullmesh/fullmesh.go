// Package fullmesh implements deadlock-free fault-tolerant routing on the
// full mesh — n routers, every pair joined by a direct link — without
// virtual channels (the setting of arXiv 2510.14730; the concrete
// ordering rule below is this repo's own, chosen so the CDG prover
// certifies it, with deviations documented in DESIGN.md §11).
//
// The full mesh is the one-dimensional HyperX, and the sound scheme is
// hyperx's on the shape {n}, renamed: the healthy route is the single
// direct hop, and a faulty direct link a–t is detoured through an
// intermediate m (a two-hop substitute a→m→t) under hyperx's rank order:
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
// construction, the one rule of this package's own: it drops the rank
// constraint and picks the intermediate counting down from t-1. On K4 with
// faulty links 0–2 and 1–3 its four detours chain into the cycle
// (0→1)→(1→2)→(2→3)→(3→0)→(0→1), and the prover reports exactly that
// witness.
package fullmesh

import (
	"fmt"

	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/topo"
	"sr2201/internal/topo/hyperx"
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

// Scheme is one full-mesh routing instance: the HyperX scheme on the
// shape {n}, under the full mesh's name.
type Scheme struct {
	*hyperx.Scheme
	n         int
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
	hx, err := hyperx.New(geom.MustShape(n), faults)
	if err != nil {
		return nil, err
	}
	return &Scheme{Scheme: hx, n: n, unordered: unordered}, nil
}

// Name identifies the instance, e.g. "fullmesh-8" or
// "fullmesh-unordered-4".
func (s *Scheme) Name() string {
	if s.unordered {
		return fmt.Sprintf("fullmesh-unordered-%d", s.n)
	}
	return fmt.Sprintf("fullmesh-%d", s.n)
}

// RegisterDependences walks every pair and records the route dependences.
func (s *Scheme) RegisterDependences(b *topo.Builder) error {
	return topo.RegisterUnicastDependences(b, s)
}

// Route decides the forwarding at the router at c: hyperx's, except that
// the unordered variant picks its own intermediate around a faulty direct
// link.
func (s *Scheme) Route(c geom.Coord, in int, h *flit.Header) (engine.Decision, error) {
	fs, t := s.Faults(), h.Dst[0]
	target := geom.Coord{t}
	if !s.unordered || fs == nil || !fs.LinkFaulty(c, target) || fs.RouterFaulty(c) || fs.RouterFaulty(target) {
		return s.Scheme.Route(c, in, h)
	}
	// Broken variant: first healthy intermediate counting down from t-1,
	// no ordering constraint.
	for i := 1; i < s.n; i++ {
		m := (t - i + s.n) % s.n
		mid := geom.Coord{m}
		if m == c[0] || fs.RouterFaulty(mid) || fs.LinkFaulty(c, mid) || fs.LinkFaulty(mid, target) {
			continue
		}
		return engine.Decision{Outs: []int{topo.PortOf(s.Shape(), c, 0, m)}}, nil
	}
	return engine.Decision{}, fmt.Errorf("%w: link %s-%s faulty and no healthy intermediate",
		topo.ErrUnreachable, c, target)
}
