// Package deadlock detects and diagnoses routing deadlock in a running
// simulation. Detection is two-staged, as in Section 5 of DESIGN.md:
//
//  1. a progress watchdog declares the network stalled when flits are
//     resident but none has moved for a configurable number of cycles;
//  2. a wait-for-graph analyzer then inspects the kernel's blocked ports and
//     searches for a cycle among the channel resources, distinguishing true
//     deadlock (cyclic waiting, the paper's failure mode) from mere
//     starvation or long transients.
//
// The wait-for graph is a channel dependence graph: its vertices are the
// channels blocked packets hold (each input port standing for the channel
// feeding it), and its cycle is found by the prover's one search,
// topo.FindCycle. Each wait edge names the switch traversal it stands for
// (WaitEdge.Hop), so a realized cycle can be laid on a certificate's
// channels through topo.Walker.ChannelOf.
package deadlock

import (
	"fmt"
	"slices"
	"strings"

	"sr2201/internal/engine"
	"sr2201/internal/topo"
)

// DefaultStallThreshold is the number of zero-movement cycles after which the
// watchdog fires. It comfortably exceeds any legitimate pause in the
// experiments (the longest packets are tens of flits).
const DefaultStallThreshold = 512

// Watchdog tracks simulation progress.
type Watchdog struct {
	eng        *engine.Engine
	threshold  int64
	lastMoves  int64
	lastChange int64
}

// NewWatchdog wraps an engine. threshold <= 0 selects
// DefaultStallThreshold.
func NewWatchdog(e *engine.Engine, threshold int64) *Watchdog {
	if threshold <= 0 {
		threshold = DefaultStallThreshold
	}
	return &Watchdog{eng: e, threshold: threshold, lastMoves: e.Moves(), lastChange: e.Cycle()}
}

// Stalled reports whether the network has held flits without any movement
// for at least the threshold. Call it once per cycle, after Step.
func (w *Watchdog) Stalled() bool {
	if w.eng.Moves() != w.lastMoves {
		w.lastMoves = w.eng.Moves()
		w.lastChange = w.eng.Cycle()
		return false
	}
	if w.eng.Resident() == 0 {
		return false
	}
	return w.eng.Cycle()-w.lastChange >= w.threshold
}

// Reset re-arms the watchdog as if it had just been created: the current
// cycle becomes the new baseline for the stall countdown. The recovery
// layer calls it after purging a deadlock victim — the purge itself moves
// no flits, so without a reset the watchdog would re-fire immediately and
// re-diagnose the half-dissolved cycle.
func (w *Watchdog) Reset() {
	w.lastMoves = w.eng.Moves()
	w.lastChange = w.eng.Cycle()
}

// Kind is why a blocked packet waits on the packet at To.
type Kind uint8

const (
	Wants         Kind = iota // it wants output Out, which To's packet owns
	CreditStalled             // it holds output Out, whose downstream buffer, To's, is full
	Starved                   // its flits are stuck behind To's packet, which owns Out, From's upstream
)

// WaitEdge is one arc of the wait-for graph: the packet blocked at From is
// waiting for a resource whose release depends on the packet at To.
type WaitEdge struct {
	From, To *engine.InPort
	Kind     Kind
	// Out is the wanted port (Wants), the credit-stalled port
	// (CreditStalled) or the starving port, From's upstream (Starved).
	Out *engine.OutPort
}

// Hop is the one switch traversal the edge names, as the channel a packet
// holds and the channel it waits for next: From's upstream and Out, or, when
// starved, the starving packet's own earlier hop into Out.
func (e WaitEdge) Hop() (held, next *engine.OutPort) {
	if e.Kind == Starved {
		return e.To.UpstreamOut(), e.Out
	}
	return e.From.UpstreamOut(), e.Out
}

// Report is the analyzer's verdict on a stalled network.
type Report struct {
	// Deadlocked is true when the wait-for graph contains a cycle.
	Deadlocked bool
	// Cycle lists the edges of one wait cycle when Deadlocked.
	Cycle []WaitEdge
	// Edges is the full wait-for graph.
	Edges []WaitEdge
	// Blocked is the kernel's snapshot the graph was built from.
	Blocked []engine.WaitInfo
}

// Analyze builds the wait-for graph from the engine's blocked ports and
// searches it for a cycle. Call it only when the watchdog has fired (or the
// network is otherwise known to be quiescent-but-loaded); on a live network
// transient arbitration losses make spurious edges.
//
// The graph's vertices are input ports, each standing for the channel that
// feeds it: the blocked ports numbered densely in BlockedPorts order, then
// every other target as first seen. The cycle search is the prover's,
// topo.FindCycle, with each port's successors in the order its edges are
// found.
func Analyze(e *engine.Engine) Report {
	blocked := e.BlockedPorts()
	r := Report{Blocked: blocked}

	id := make(map[*engine.InPort]int32, len(blocked))
	for i, wi := range blocked {
		id[wi.In] = int32(i)
	}
	adj := make([][]int32, len(blocked))
	first := make([]int, len(blocked)) // where each blocked port's edges start in r.Edges
	addEdge := func(u int, we WaitEdge) {
		if we.To == nil || we.From == we.To {
			return
		}
		v, ok := id[we.To]
		if !ok {
			v = int32(len(adj))
			id[we.To] = v
			adj = append(adj, nil)
		}
		adj[u] = append(adj[u], v)
		r.Edges = append(r.Edges, we)
	}
	for u, wi := range blocked {
		first[u] = len(r.Edges)
		for _, o := range wi.WantsOwned {
			addEdge(u, WaitEdge{From: wi.In, To: o.Owner(), Kind: Wants, Out: o})
		}
		for _, o := range wi.CreditStalled {
			// Endpoints drain unconditionally (unbounded eject in our
			// experiments); no dependency.
			if dn := o.DownstreamIn(); dn != nil && dn.Node().Kind != engine.KindEndpoint {
				addEdge(u, WaitEdge{From: wi.In, To: dn, Kind: CreditStalled, Out: o})
			}
		}
		if wi.AwaitingFlits && wi.In.UpstreamInFlight() == 0 {
			// The port's circuit is open but its flits are stuck upstream
			// (and none are in flight on the link): progress depends on the
			// packet's upstream segment — the input port holding the output
			// that feeds this one.
			if up := wi.In.UpstreamOut(); up != nil {
				addEdge(u, WaitEdge{From: wi.In, To: up.Owner(), Kind: Starved, Out: up})
			}
		}
	}

	cycle, _ := topo.FindCycle(adj)
	if cycle == nil {
		return r
	}
	// FindCycle ends the cycle where it closed; the report starts there, so
	// it is rotated by one. Each step is the first edge between its ports,
	// the one the search took.
	r.Deadlocked = true
	for i, v := range cycle {
		u := cycle[(i+len(cycle)-1)%len(cycle)]
		r.Cycle = append(r.Cycle, r.Edges[first[u]+slices.Index(adj[u], v)])
	}
	return r
}

// Victim is the packet the recovery layer purges to dissolve the cycle: the
// lowest packet id holding a port on it. It depends only on simulation state,
// so it is identical across runs and -parallel widths. ok is false when no
// port on the cycle holds a header.
func (r Report) Victim() (id uint64, ok bool) {
	for _, e := range r.Cycle {
		if h := e.From.CurrentHeader(); h != nil && (!ok || h.PacketID < id) {
			id, ok = h.PacketID, true
		}
	}
	return id, ok
}

// Describe renders the report for logs and error messages.
func (r Report) Describe() string {
	if !r.Deadlocked {
		return fmt.Sprintf("no wait cycle (%d blocked ports, %d edges)\n", len(r.Blocked), len(r.Edges))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "DEADLOCK: wait cycle of length %d\n", len(r.Cycle))
	for _, e := range r.Cycle {
		id := uint64(0)
		if hdr := e.From.CurrentHeader(); hdr != nil {
			id = hdr.PacketID
		}
		to := fmt.Sprintf("%s.in%d", e.To.Node().Name, e.To.Index())
		why := "starved of flits from " + to
		switch e.Kind {
		case Wants:
			why = fmt.Sprintf("wants %s.out%d owned by packet at %s", e.Out.Node().Name, e.Out.Index(), to)
		case CreditStalled:
			why = "credit-stalled into " + to
		}
		fmt.Fprintf(&b, "  pkt%d at %s.in%d %s\n", id, e.From.Node().Name, e.From.Index(), why)
	}
	return b.String()
}

// Outcome summarizes a watched run.
type Outcome struct {
	// Drained is true when every flit left the network.
	Drained bool
	// Deadlocked is true when the watchdog fired and the analyzer confirmed a
	// wait cycle.
	Deadlocked bool
	// Stalled is true when the watchdog fired (whether or not a cycle was
	// confirmed; an unconfirmed stall usually means a dependency through an
	// endpoint or a bug).
	Stalled bool
	// Cycle is the simulation time at which the run ended.
	Cycle int64
	// Report carries the analyzer output when Stalled.
	Report Report
}

// Run steps the engine until it drains, deadlocks, or maxCycles pass.
// stallThreshold <= 0 selects DefaultStallThreshold.
func Run(e *engine.Engine, maxCycles, stallThreshold int64) Outcome {
	w := NewWatchdog(e, stallThreshold)
	for i := int64(0); i < maxCycles; i++ {
		if e.Quiescent() {
			return Outcome{Drained: true, Cycle: e.Cycle()}
		}
		e.Step()
		if w.Stalled() {
			rep := Analyze(e)
			return Outcome{Stalled: true, Deadlocked: rep.Deadlocked, Cycle: e.Cycle(), Report: rep}
		}
	}
	if e.Quiescent() {
		return Outcome{Drained: true, Cycle: e.Cycle()}
	}
	return Outcome{Cycle: e.Cycle()}
}
