// Package escape registers the escape subnetwork of escape-VC adaptive
// routing (routing.VCPolicy) as a certifiable topo.Scheme. The scheme is the
// unified S-XB = D-XB policy confined to lane 0 of a V-lane network: no
// packet enters lane 0 at a crossbar and lane-0 packets stay on lane 0 until
// delivery, so cdg.RegisterEscapeDependences reproduces exactly the escape
// channel's internal dependences. The golden certificate (acyclic) is the
// static half of the escape-channel deadlock-freedom argument. The dynamic
// half does not hold: it needs every blocked adaptive packet to be able to
// commit to lane 0, but an adaptive-lane packet at a crossbar has no escape,
// and a granted provisional hop can put two packets on one channel. The
// adaptive machine can deadlock (ROADMAP item 18; core's
// TestVCAllocKnownDeadlock).
package escape

import (
	"fmt"

	"sr2201/internal/cdg"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
	"sr2201/internal/topo"
)

// Scheme is the escape subnetwork of a VC network: a unified routing.Policy
// on lane 0 of vcs lanes per wire.
type Scheme struct {
	p     *routing.Policy
	shape geom.Shape
	vcs   int
}

// New builds the escape scheme for a routing configuration and lane count.
// The configuration must be the unified scheme (no separate D-XB) — the only
// escape channel adaptive routing accepts.
func New(cfg routing.Config, vcs int) (*Scheme, error) {
	if vcs < 2 {
		return nil, fmt.Errorf("escape: need >= 2 virtual channels, got %d", vcs)
	}
	p, err := routing.New(cfg)
	if err != nil {
		return nil, err
	}
	if p.EffectiveSXB() != p.EffectiveDXB() {
		return nil, fmt.Errorf("escape: escape channel requires the unified D-XB = S-XB scheme")
	}
	return &Scheme{p: p, shape: cfg.Shape, vcs: vcs}, nil
}

// Name identifies the instance, e.g. "escape-vc2-4x4".
func (s *Scheme) Name() string {
	return fmt.Sprintf("escape-vc%d-%s", s.vcs, s.shape)
}

// Policy returns the wrapped escape routing policy.
func (s *Scheme) Policy() *routing.Policy { return s.p }

// Shape returns the lattice shape.
func (s *Scheme) Shape() geom.Shape { return s.shape }

// VCs returns the lane count the scheme's channels are scaled for.
func (s *Scheme) VCs() int { return s.vcs }

// RegisterDependences records the escape channel's dependences: the unified
// scheme on lane 0 of every wire.
func (s *Scheme) RegisterDependences(b *topo.Builder) error {
	return cdg.RegisterEscapeDependences(b, s.p, s.shape, s.vcs)
}

func init() {
	topo.Register(topo.Registration{
		Name: "escape",
		Canonical: func() (topo.Scheme, error) {
			return New(routing.Config{Shape: geom.MustShape(4, 4)}, 2)
		},
	})
}
