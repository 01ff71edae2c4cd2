// Package mdx ports the paper's S-XB/D-XB routing policy onto the topo
// Scheme interface — the framework's reference implementation. The
// dependence registration is internal/cdg's Section 5 construction
// (point-to-point classes, broadcast request legs, contracted serialized
// fan tree), so certifying this scheme re-proves the paper's theorem
// through the topology-agnostic prover, pinned equal to cdg.Analyze. Pivot,
// registered beside it as "mdx-pivot", is the extension the prover refutes.
package mdx

import (
	"sr2201/internal/cdg"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
	"sr2201/internal/topo"
)

// Scheme wraps a routing.Policy instance as a certifiable topo.Scheme.
type Scheme struct {
	p     *routing.Policy
	shape geom.Shape
}

// New builds the scheme for a routing configuration.
func New(cfg routing.Config) (*Scheme, error) {
	p, err := routing.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Scheme{p: p, shape: cfg.Shape}, nil
}

// Name identifies the instance, e.g. "mdx-unified-4x4".
func (s *Scheme) Name() string { return cdg.SchemeName(s.p, s.shape) }

// Policy returns the wrapped routing policy.
func (s *Scheme) Policy() *routing.Policy { return s.p }

// Shape returns the lattice shape.
func (s *Scheme) Shape() geom.Shape { return s.shape }

// RegisterDependences records the paper's serialized scheme.
func (s *Scheme) RegisterDependences(b *topo.Builder) error {
	return cdg.RegisterDependences(b, s.p, s.shape)
}

func init() {
	topo.Register(topo.Registration{
		Name: "mdx",
		Canonical: func() (topo.Scheme, error) {
			return New(routing.Config{Shape: geom.MustShape(4, 4)})
		},
	})
	topo.Register(topo.Registration{
		Name: "mdx-pivot",
		Canonical: func() (topo.Scheme, error) {
			shape := geom.MustShape(4, 4)
			faults := fault.NewSet(shape)
			if err := faults.Add(fault.XBFault(geom.Line{Dim: 1, Fixed: geom.Coord{2, 0}})); err != nil {
				return nil, err
			}
			return NewPivot(routing.Config{Shape: shape, Faults: faults})
		},
		Refuted: true,
	})
}
