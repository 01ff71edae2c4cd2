// Escape-VC adaptive routing: the classic alternative to the paper's static
// one-detour scheme. The network is built with V >= 2 virtual channels per
// router↔crossbar wire (topo.MDCrossbar); lane 0 is the escape channel running
// the paper's unified deadlock-free policy (D-XB = S-XB) unchanged, and lanes
// 1..V-1 are adaptive: a normal packet may take any minimal productive hop —
// any dimension in which it has not yet reached its destination coordinate —
// on any free adaptive lane.
//
// Deadlock freedom is the standard escape-channel argument (Duato): adaptive
// decisions are Provisional, so a packet that fails to win its adaptive lane
// is re-routed every cycle and, when no adaptive lane is available, commits
// to the escape channel. A packet that arrives at a router on lane 0 is
// captured: it stays on the escape channel until delivery. The escape
// subnetwork therefore carries exactly the unified policy's channel
// dependences — certified acyclic by the CDG prover (internal/topo/escape) —
// and every blocked packet eventually requests it, so the escape drains any
// cyclic wait the adaptive lanes can build. Liveness of re-routing follows
// from the preserved arrival stamp: the oldest packet in the network wins
// every arbitration it enters and always advances.
package routing

import (
	"fmt"

	"sr2201/internal/engine"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/topo"
)

// VCPolicy implements topo.Policy for a network built with virtual channels:
// escape-VC adaptive routing over an embedded escape Policy. The escape
// policy must be the unified scheme (D-XB = S-XB) and must not use the pivot
// extension or naive broadcast — each would add escape-channel dependences
// outside the certified set.
type VCPolicy struct {
	// escape is the escape policy with its outputs numbered as lane 0 of
	// the lane-scaled ports: logical output k, the PE port d included, is
	// physical port k·vcs. It is a copy sharing the escape policy's rules
	// and fault set, and one with the VCPolicy.
	escape Policy
	vcs    int
	// one[k] is the shared read-only output list {k} over the lane-scaled
	// physical ports (see Policy.one).
	one [][]int
}

var _ topo.Policy = (*VCPolicy)(nil)

// NewVC wraps the escape policy for a network with vcs virtual channels.
func NewVC(escape *Policy, vcs int) (*VCPolicy, error) {
	if escape == nil {
		return nil, fmt.Errorf("routing: adaptive routing needs an escape policy")
	}
	if vcs < 2 {
		return nil, fmt.Errorf("routing: adaptive routing needs >= 2 virtual channels, got %d", vcs)
	}
	if escape.sEff != escape.dEff {
		return nil, fmt.Errorf("routing: adaptive escape channel requires D-XB = S-XB (the unified deadlock-free scheme)")
	}
	if escape.cfg.PivotLastDim {
		return nil, fmt.Errorf("routing: adaptive escape channel cannot use the pivot extension (its turns break escape acyclicity)")
	}
	if escape.cfg.NaiveBroadcast {
		return nil, fmt.Errorf("routing: adaptive escape channel cannot use naive broadcast (its fan cycles break escape acyclicity)")
	}
	// The escape policy's widest switch, lane-scaled, plus the PE port.
	p := &VCPolicy{escape: *escape, vcs: vcs, one: singleOuts(len(escape.one)*vcs + 1)}
	p.escape.one, p.escape.scale = p.one, vcs
	return p, nil
}

// VCs reports the virtual-channel count the policy was built for.
func (p *VCPolicy) VCs() int { return p.vcs }

// RouteRouter implements topo.Policy. in is a physical port index of the
// lane-scaled router (see topo.MDCrossbar).
func (p *VCPolicy) RouteRouter(net *topo.Net, c geom.Coord, in int, h *flit.Header) (engine.Decision, error) {
	d := p.escape.dims
	physPE := d * p.vcs
	logicalIn, inLane := d, 0 // PE arrival
	if in < physPE {
		logicalIn, inLane = in/p.vcs, in%p.vcs
	}

	// Special-mode packets (broadcast request/fan, detour) and captured
	// packets — normal packets that arrived on the escape lane of a crossbar
	// wire — belong to the escape channel until delivery.
	escapeBound := h.RC != flit.RCNormal || h.TwoPhase || (in < physPE && inLane == 0)
	if !escapeBound {
		if dec, ok := p.adaptiveHop(net, c, h); ok {
			return dec, nil
		}
	}
	return decision(p.escape.routeRouter(c, logicalIn, h))
}

// adaptiveHop picks a minimal productive hop on a free adaptive lane, or
// reports ok=false to commit the packet to the escape channel. The choice
// reads only node-local, phase-stable state (output-port ownership), so it is
// identical in both scheduler modes; candidates are scanned
// dimension-ascending, lane-ascending for determinism. The read is
// unsynchronized: a machine steps on a single goroutine (sweep parallelism
// runs distinct machines).
func (p *VCPolicy) adaptiveHop(net *topo.Net, c geom.Coord, h *flit.Header) (engine.Decision, bool) {
	rtc := net.Router(c)
	e := &p.escape
	at, stride := e.shape.Index(c), 1 // c's router index, and dimension k's stride
	for k, n := range e.shape {
		// Productive, and the escape's detour machinery handles neither a
		// faulty crossbar nor a faulty exit router.
		if c[k] != h.Dst[k] && !e.xbFaulty(c, k) && !e.faults.RouterFaultyAt(at+(h.Dst[k]-c[k])*stride) {
			for v := 1; v < p.vcs; v++ {
				port := k*p.vcs + v
				if rtc.Out[port].Owned() {
					continue
				}
				return engine.Decision{Outs: p.one[port], Rewrite: flit.CountAdaptive, Provisional: true}, true
			}
		}
		stride *= n
	}
	return engine.Decision{}, false
}

// RouteXB implements topo.Policy. A packet on the escape lane follows the
// escape policy; a packet on an adaptive lane crosses the bar on the same
// lane to its destination's point — non-provisionally, since a crossbar has
// exactly one productive exit. No packet enters the escape lane at a
// crossbar, so the escape channel's internal dependences stay exactly the
// certified unified set.
func (p *VCPolicy) RouteXB(net *topo.Net, l geom.Line, in int, h *flit.Header) (engine.Decision, error) {
	point, lane := in/p.vcs, in%p.vcs
	if lane == 0 {
		return decision(p.escape.routeXB(l, point, h))
	}
	if h.RC != flit.RCNormal {
		return engine.Decision{}, fmt.Errorf("routing: %v packet on adaptive lane %d of crossbar %v", h.RC, lane, l)
	}
	target := h.Dst[l.Dim]
	exit := l.Point(target)
	if p.escape.routerFaulty(exit) {
		// The router-side check keeps packets away from faulty exits; hitting
		// one here means the fault landed after the packet entered the bar.
		// Drop and let retransmission recover — detouring is escape-only.
		return engine.Decision{}, fmt.Errorf("%w: exit router %v faulty (adaptive lane)", ErrUnreachable, exit)
	}
	return engine.Decision{Outs: p.one[target*p.vcs+lane]}, nil
}
