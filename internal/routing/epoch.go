package routing

import (
	"fmt"

	"sr2201/internal/engine"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/topo"
)

// Generation is one routing-table generation under online reconfiguration:
// the policy (algorithmic or compiled) that packets stamped with epochs in
// [Boundary, nextBoundary) route under, together with the effective S-XB and
// D-XB coordinates it was built with — recorded so a retired generation can
// be reconstructed exactly (via NewPinned) from a checkpoint or for
// transition-safety analysis, independent of later fault substitutions.
type Generation struct {
	// Boundary is the first epoch value this generation serves. Generations
	// are ordered by strictly increasing Boundary; the first is 0.
	Boundary uint64
	// SEff and DEff are the effective serialized and detour crossbar lines
	// the generation was compiled with (dimension 0 ignored).
	SEff, DEff geom.Coord
	// Separate records whether the generation kept the configured separate
	// D-XB (false once a reconfiguration degraded the machine to the
	// unified D-XB = S-XB scheme).
	Separate bool
	// Delegate makes the generation's routing decisions.
	Delegate topo.Policy
}

// EpochPolicy dispatches every routing decision to the generation covering
// the packet header's Epoch stamp: in-flight packets keep the table they
// were injected under across a live reconfiguration, while new packets
// (stamped with the latest epoch) route under the freshly committed table.
// The value is immutable; the machine installs a new EpochPolicy at each
// commit and garbage-collection step.
type EpochPolicy struct {
	gens []Generation
}

var _ topo.Policy = (*EpochPolicy)(nil)

// NewEpochPolicy validates the generation list (non-empty, first boundary
// zero, strictly increasing boundaries, non-nil delegates).
func NewEpochPolicy(gens []Generation) (*EpochPolicy, error) {
	if len(gens) == 0 {
		return nil, fmt.Errorf("routing: epoch policy needs at least one generation")
	}
	if gens[0].Boundary != 0 {
		return nil, fmt.Errorf("routing: first generation boundary %d, want 0", gens[0].Boundary)
	}
	for i, g := range gens {
		if g.Delegate == nil {
			return nil, fmt.Errorf("routing: generation %d has no delegate policy", i)
		}
		if i > 0 && g.Boundary <= gens[i-1].Boundary {
			return nil, fmt.Errorf("routing: generation boundaries not increasing (%d then %d)", gens[i-1].Boundary, g.Boundary)
		}
	}
	cp := make([]Generation, len(gens))
	copy(cp, gens)
	return &EpochPolicy{gens: cp}, nil
}

// Generations returns the (immutable) generation list, oldest first.
func (ep *EpochPolicy) Generations() []Generation { return ep.gens }

// For returns the generation serving the given epoch stamp: the last whose
// Boundary does not exceed it.
func (ep *EpochPolicy) For(epoch uint64) Generation {
	g := ep.gens[0]
	for _, cand := range ep.gens[1:] {
		if cand.Boundary > epoch {
			break
		}
		g = cand
	}
	return g
}

// RouteRouter implements topo.Policy by epoch dispatch.
func (ep *EpochPolicy) RouteRouter(net *topo.Net, c geom.Coord, in int, h *flit.Header) (engine.Decision, error) {
	return ep.For(h.Epoch).Delegate.RouteRouter(net, c, in, h)
}

// RouteXB implements topo.Policy by epoch dispatch.
func (ep *EpochPolicy) RouteXB(net *topo.Net, l geom.Line, in int, h *flit.Header) (engine.Decision, error) {
	return ep.For(h.Epoch).Delegate.RouteXB(net, l, in, h)
}
