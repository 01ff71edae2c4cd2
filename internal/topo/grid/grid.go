// Package grid implements the baseline interconnects the paper's Section 3
// compares the multi-dimensional crossbar against, as topo schemes: a 2D mesh
// with dimension-order (XY) routing, and a 2D torus with minimal e-cube
// routing made deadlock-free by two dateline virtual channels per direction
// (Dally & Seitz), the scheme of the CRAY T3D the paper cites. The
// torus-novc variant drops the virtual channels and is kept as the
// counter-example: the prover refutes it with a wraparound-ring witness and
// the machine built on it deadlocks under load.
//
// All three run on core.Machine like every other topology, so latency,
// throughput and conflict numbers are directly comparable. They model no
// faults.
package grid

import (
	"fmt"

	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/topo"
)

func init() {
	for _, f := range []struct {
		name    string
		wrap    bool
		lanes   int
		refuted bool
	}{
		{"mesh", false, 1, false},
		{"torus", true, 2, false},
		{"torus-novc", true, 1, true},
	} {
		build := func(shape geom.Shape, _ *fault.Set) (topo.Router, error) {
			return newScheme(f.name, shape, f.wrap, f.lanes)
		}
		topo.Register(topo.Registration{
			Name:      f.name,
			Canonical: func() (topo.Scheme, error) { return build(geom.MustShape(8, 8), nil) },
			New:       build,
			Refuted:   f.refuted,
		})
	}
}

// Scheme is one grid routing instance. Link port dir*lanes+lane leaves the
// router in direction dir (+x, -x, +y, -y) on virtual channel lane; the port
// after the last link port leads to the PE.
type Scheme struct {
	family string
	shape  geom.Shape
	wrap   bool // torus: the last router of a line is cabled back to the first
	lanes  int  // virtual channels per direction
}

func newScheme(family string, shape geom.Shape, wrap bool, lanes int) (*Scheme, error) {
	if shape.Dims() != 2 {
		return nil, fmt.Errorf("%s: shape must be 2-dimensional, got %d", family, shape.Dims())
	}
	if wrap && (shape[0] < 3 || shape[1] < 3) {
		return nil, fmt.Errorf("%s: torus extents must be at least 3, got %v", family, shape)
	}
	return &Scheme{family: family, shape: shape, wrap: wrap, lanes: lanes}, nil
}

// Name identifies the instance, e.g. "torus-8x8".
func (s *Scheme) Name() string { return s.family + "-" + s.shape.String() }

// Shape returns the lattice shape.
func (s *Scheme) Shape() geom.Shape { return s.shape }

// Wiring is the scheme itself: it states its own nearest-neighbour cabling.
func (s *Scheme) Wiring() topo.Wiring { return s }

// RegisterDependences walks every pair and records the route dependences.
func (s *Scheme) RegisterDependences(b *topo.Builder) error {
	return topo.RegisterUnicastDependences(b, s)
}

// Ports is four directions of lanes each, plus the PE port.
func (s *Scheme) Ports() int { return 4*s.lanes + 1 }

// Lanes is the number of virtual channels sharing each direction's wire.
func (s *Scheme) Lanes() int { return s.lanes }

// Peer follows a link port one step along its direction, arriving on the
// opposite direction's port of the same lane; on the mesh the ports facing
// off the edge are uncabled.
func (s *Scheme) Peer(c geom.Coord, port int) (geom.Coord, int, bool) {
	dir, lane := port/s.lanes, port%s.lanes
	dim, n := dir/2, s.shape[dir/2]
	v := c[dim] + 1 - 2*(dir%2)
	if v < 0 || v >= n {
		if !s.wrap {
			return geom.Coord{}, 0, false
		}
		v = (v + n) % n
	}
	return c.WithDim(dim, v), (dir^1)*s.lanes + lane, true
}

// Crossbars is false: neighbours are cabled directly.
func (s *Scheme) Crossbars() bool { return false }

// Route is dimension-order routing: x first, then y, each dimension the
// short way round on a torus (ties go the positive way). With dateline
// virtual channels a packet rides lane 0 until the hop that crosses the
// wraparound edge of the current dimension and lane 1 from there on (a
// packet arriving on lane 1 stays on it within the dimension), which cuts
// the ring's channel dependence cycle.
func (s *Scheme) Route(c geom.Coord, in int, h *flit.Header) (engine.Decision, error) {
	for dim := 0; dim < 2; dim++ {
		n, delta := s.shape[dim], h.Dst[dim]-c[dim]
		if delta == 0 {
			continue
		}
		positive := delta > 0
		if s.wrap {
			positive = (delta+n)%n <= n/2
		}
		dir, edge := 2*dim, n-1
		if !positive {
			dir, edge = dir+1, 0
		}
		lane := 0
		if s.lanes > 1 && (c[dim] == edge || in == (dir^1)*s.lanes+1) {
			lane = 1
		}
		return engine.Decision{Outs: []int{dir*s.lanes + lane}}, nil
	}
	return engine.Decision{Outs: []int{4 * s.lanes}}, nil
}
