package routing

import (
	"fmt"

	"sr2201/internal/engine"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/topo"
)

// Generation is one routing generation under online reconfiguration: the
// policy that packets stamped with epochs in [Boundary, nextBoundary) route
// under. A Policy keeps the effective S-XB and D-XB lines it was built with
// and reads the machine's fault set by reference, so a retired generation
// steers toward its own lines while it sees every later fault — exactly the
// decisions its in-flight packets face.
type Generation struct {
	// Boundary is the first epoch value this generation serves. Generations
	// are ordered by strictly increasing Boundary; the first is 0.
	Boundary uint64
	// Policy makes the generation's routing decisions.
	Policy *Policy
}

// GenerationIndex returns the index of the generation serving the given
// epoch stamp: the last whose Boundary does not exceed it.
func GenerationIndex(gens []Generation, epoch uint64) int {
	idx := 0
	for i, g := range gens {
		if g.Boundary > epoch {
			break
		}
		idx = i
	}
	return idx
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
// zero, strictly increasing boundaries, non-nil policies).
func NewEpochPolicy(gens []Generation) (*EpochPolicy, error) {
	if len(gens) == 0 {
		return nil, fmt.Errorf("routing: epoch policy needs at least one generation")
	}
	if gens[0].Boundary != 0 {
		return nil, fmt.Errorf("routing: first generation boundary %d, want 0", gens[0].Boundary)
	}
	for i, g := range gens {
		if g.Policy == nil {
			return nil, fmt.Errorf("routing: generation %d has no policy", i)
		}
		if i > 0 && g.Boundary <= gens[i-1].Boundary {
			return nil, fmt.Errorf("routing: generation boundaries not increasing (%d then %d)", gens[i-1].Boundary, g.Boundary)
		}
	}
	cp := make([]Generation, len(gens))
	copy(cp, gens)
	return &EpochPolicy{gens: cp}, nil
}

// For returns the generation serving the given epoch stamp.
func (ep *EpochPolicy) For(epoch uint64) Generation { return ep.gens[GenerationIndex(ep.gens, epoch)] }

// RouteRouter implements topo.Policy by epoch dispatch.
func (ep *EpochPolicy) RouteRouter(net *topo.Net, c geom.Coord, in int, h *flit.Header) (engine.Decision, error) {
	return ep.For(h.Epoch).Policy.RouteRouter(net, c, in, h)
}

// RouteXB implements topo.Policy by epoch dispatch.
func (ep *EpochPolicy) RouteXB(net *topo.Net, l geom.Line, in int, h *flit.Header) (engine.Decision, error) {
	return ep.For(h.Epoch).Policy.RouteXB(net, l, in, h)
}
