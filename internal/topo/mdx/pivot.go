package mdx

import (
	"fmt"

	"sr2201/internal/cdg"
	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
	"sr2201/internal/topo"
)

// Pivot is experiment A3's two-phase pivot extension, kept as a refuted
// scheme: a certificate, never a machine. The paper leaves a destination
// behind a faulty last-dimension crossbar unreachable; the pivot rides
// dimension order to an intermediate router on the destination's dim-0 line
// and, instead of ejecting there, takes one more dim-0 hop. That turn away
// from the S-XB closes a dependence cycle with ordinary traffic. 2D only.
type Pivot struct {
	p      *routing.Policy
	shape  geom.Shape
	faults *fault.Set
	w      topo.Walker
	route  []int32
}

// NewPivot builds the extension over the policy of cfg, whose shape must be
// 2D.
func NewPivot(cfg routing.Config) (*Pivot, error) {
	if cfg.Shape.Dims() != 2 {
		return nil, fmt.Errorf("mdx: the pivot extension is 2D only, not %s", cfg.Shape)
	}
	if cfg.Faults == nil {
		cfg.Faults = fault.NewSet(cfg.Shape)
	}
	p, err := routing.New(cfg)
	if err != nil {
		return nil, err
	}
	w := topo.NewWalker(cfg.Shape, topo.MDCrossbar{Shape: cfg.Shape, VCs: 1}, p)
	return &Pivot{p: p, shape: cfg.Shape, faults: cfg.Faults, w: w}, nil
}

// Name identifies the instance, e.g. "mdx-pivot-4x4".
func (s *Pivot) Name() string { return "mdx-pivot-" + s.shape.String() }

// Policy returns the policy whose refusals the pivot serves.
func (s *Pivot) Policy() *routing.Policy { return s.p }

// Intermediate selects the pivot router for a send from src to dst: a
// healthy router on dst's dim-0 line whose own dim-1 crossbar is healthy. It
// applies only when dst sits behind its faulty dim-1 crossbar, src is on
// another row and dst's dim-0 crossbar is healthy.
func (s *Pivot) Intermediate(src, dst geom.Coord) (geom.Coord, bool) {
	f := s.faults
	if !f.XBFaulty(geom.LineOf(dst, 1)) || f.RouterFaulty(dst) || src[1] == dst[1] || f.XBFaulty(geom.LineOf(dst, 0)) {
		return geom.Coord{}, false
	}
	for v := 0; v < s.shape[0]; v++ {
		cand := dst.WithDim(0, v)
		if v != dst[0] && !f.RouterFaulty(cand) && !f.XBFaulty(geom.LineOf(cand, 1)) {
			return cand, true
		}
	}
	return geom.Coord{}, false
}

// Route returns the channels a packet from src to dst holds in turn: the
// policy's route where it serves the pair, else the route to the
// intermediate without its eject channel, then the intermediate's route on.
// The slice is reused by the next call.
func (s *Pivot) Route(src, dst geom.Coord) ([]int32, error) {
	s.route = s.route[:0]
	err := s.walk(src, dst)
	if mid, ok := s.Intermediate(src, dst); err != nil && ok {
		s.route = s.route[:0]
		if err = s.walk(src, mid); err == nil {
			s.route = s.route[:len(s.route)-1] // the packet does not eject at mid
			err = s.walk(mid, dst)
		}
	}
	if err != nil {
		return nil, err
	}
	return s.route, nil
}

// walk appends the policy's route from src to dst to s.route.
func (s *Pivot) walk(src, dst geom.Coord) error {
	h, err := s.p.UnicastHeader(src, dst)
	if err != nil {
		return err
	}
	return s.w.Unicast(&h, func(n int32, _ *flit.Header, _ int) { s.route = append(s.route, n) })
}

// RegisterDependences records every pair's Route, then the policy's
// serialized scheme (cdg.RegisterDependences), which finds its routes
// recorded and adds the broadcast classes. Vertices come in the order the
// pair loop interns them; the broadcast tree joins last. The scheme's graph
// is a second numbering of the same channels, so the builder names the pair
// loop's vertices and the two meet by name.
func (s *Pivot) RegisterDependences(b *topo.Builder) error {
	num := b.Numbering(s.w.Channels(), s.w.Name)
	n := s.shape.Size()
	for si := 0; si < n; si++ {
		for di := 0; di < n; di++ {
			route, err := s.Route(s.shape.CoordOf(si), s.shape.CoordOf(di))
			if err != nil {
				continue // unreachable pairs contribute no dependencies
			}
			for i := 1; i < len(route); i++ {
				b.Edge(num.Intern(route[i-1]), num.Intern(route[i]))
			}
		}
	}
	return cdg.RegisterDependences(b, s.p, s.shape)
}
