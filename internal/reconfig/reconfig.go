// Package reconfig performs online routing-table reconfiguration: when a
// mid-run fault lands (or a confirmed deadlock implicates a faulted
// resource), the Manager recompiles the routing policy around the updated
// fault set and swaps it into the live machine without draining the network.
// In-flight packets keep their old routes until their next routing decision —
// each header carries the epoch it was injected under, and the machine's
// generation list maps epochs to tables — so the swap itself moves no flits.
//
// The transition window is proved safe before the swap commits: the Manager
// certifies the *union* dependence graph — the candidate table's full CDG
// plus every edge a retiring generation's in-flight packets can still hold or
// wait on, restricted to still-live channels and to the traffic classes
// actually in flight — acyclic through the same topo prover that certifies
// every static scheme. An attempt chooses one candidate: the first
// statically admissible one (statically cyclic candidates are refused on the
// way, each with a concrete cycle witness recorded on the event), or, when
// none is, the last one that built. The ladder has two rungs:
//
//  1. an admissible candidate whose union graph is acyclic is hot-swapped
//     in;
//  2. otherwise the Manager falls back to installing the chosen candidate
//     in place, the pre-reconfiguration answer to a fault, and any
//     transition deadlock is the recovery supervisor's to purge and
//     retransmit (the scheme of DBR, arXiv 1211.5747): a transition that
//     cannot be certified still lands on the new routing function, never
//     on one the attempt refuted. A fallback forced by a cyclic union keeps
//     the union certificate, witness included, on the event.
//
// Both rungs install through Machine.CommitGeneration; a fallback's empty
// census leaves its table the one generation, routing every epoch. An
// admissible candidate whose lines every generation already routes on is
// not committed at all: the attempt changes no route and records the tables
// unchanged.
//
// The Manager never purges packets to make a cyclic transition safe: on
// every measured workload, purging every old-epoch packet first cost more
// packets than recovery does (DESIGN §13).
//
// Every decision runs synchronously inside a deterministic hook (FailNow's
// reconfigurer or the recovery supervisor's PostCycle hand-off), so runs stay
// byte-identical across -parallel widths and across resumes.
package reconfig

import (
	"fmt"
	"strings"

	"sr2201/internal/cdg"
	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/routing"
	"sr2201/internal/topo"
)

// Trigger values for Event.Trigger.
const (
	// TriggerFault marks a reconfiguration attempted from the machine's
	// fault hook (a mid-run FailNow).
	TriggerFault = "fault"
	// TriggerDeadlock marks a reconfiguration attempted from the recovery
	// supervisor's hand-off after a confirmed deadlock was dissolved.
	TriggerDeadlock = "deadlock"
)

// Outcome values for Event.Outcome.
const (
	// OutcomeHotSwap is the clean case: union graph acyclic, table swapped
	// with zero packets disturbed.
	OutcomeHotSwap = "hot-swap"
	// OutcomeFallback means no admissible transition existed (every
	// candidate statically cyclic or unbuildable, or the union graph cyclic)
	// and the Manager installed its chosen candidate in place: one
	// generation for every epoch.
	OutcomeFallback = "fallback"
	// OutcomeUnchanged means the admissible candidate routes on the lines
	// every generation already has, so nothing was committed: the tables
	// and the epoch stay as they were.
	OutcomeUnchanged = "unchanged"
)

// Event records one reconfiguration attempt, whatever its outcome.
type Event struct {
	// Cycle is the simulation time of the attempt.
	Cycle int64
	// Trigger is TriggerFault or TriggerDeadlock.
	Trigger string
	// Fault is the fault that fired the attempt (zero for TriggerDeadlock).
	Fault fault.Fault
	// Outcome is OutcomeHotSwap, OutcomeFallback or OutcomeUnchanged.
	Outcome string
	// Reason explains a fallback ("no admissible candidate", "union cyclic
	// ..."); empty otherwise.
	Reason string
	// Epoch is the committed generation's epoch stamp (the machine's
	// unchanged epoch for OutcomeUnchanged).
	Epoch uint64
	// Scheme names the chosen candidate's scheme: the table a hot swap or a
	// fallback committed, or the one the machine already routes on.
	Scheme string
	// InFlight counts the packets resident in the network at decision time
	// (zero for OutcomeUnchanged, which takes no census).
	InFlight int
	// Refusals holds the static certificate of every candidate refused for
	// a concrete dependence cycle, in trial order. Each carries its cycle
	// witness.
	Refusals []topo.Certificate
	// Errors lists candidates that could not even be built against the
	// fault set (no effective line available), in trial order.
	Errors []string
	// Candidate is the admissible candidate's static certificate (zero value
	// when no candidate was admissible).
	Candidate topo.Certificate
	// Union is the transition certificate: the candidate's CDG plus all
	// live retiring edges. Acyclic for a hot swap; for a fallback it forced,
	// the cyclic certificate with its witness; zero when no union was
	// proved.
	Union topo.Certificate
}

// String renders the event as one line, used verbatim by the single-run
// report.
func (ev Event) String() string {
	trig := ev.Trigger
	if ev.Trigger == TriggerFault {
		trig = "fault " + ev.Fault.String()
	}
	switch ev.Outcome {
	case OutcomeHotSwap:
		return fmt.Sprintf("reconfig @ cycle %d (%s): hot swap to epoch %d [%s], %d in flight, union %d channels %d edges acyclic",
			ev.Cycle, trig, ev.Epoch, ev.Scheme, ev.InFlight, ev.Union.Channels, ev.Union.Edges)
	case OutcomeUnchanged:
		return fmt.Sprintf("reconfig @ cycle %d (%s): tables unchanged at epoch %d [%s], every generation already on its lines",
			ev.Cycle, trig, ev.Epoch, ev.Scheme)
	}
	return fmt.Sprintf("reconfig @ cycle %d (%s): fell back to rebuild-in-place onto epoch %d [%s] (%s)",
		ev.Cycle, trig, ev.Epoch, ev.Scheme, ev.Reason)
}

// Stats aggregates the Manager's accounting.
type Stats struct {
	// Attempts counts reconfiguration attempts (one per trigger firing).
	Attempts int
	// HotSwaps counts attempts committed without disturbing a packet.
	HotSwaps int
	// Fallbacks counts attempts degraded to rebuild-in-place. An attempt that
	// left the tables unchanged counts in neither.
	Fallbacks int
	// Refusals counts statically cyclic candidates refused across all
	// attempts.
	Refusals int
}

// Manager drives online reconfiguration for one machine. Build it with New
// (which installs the machine's fault hook) and wire OnDeadlock into the
// recovery supervisor when the mode covers deadlocks.
type Manager struct {
	m    *core.Machine
	mode string

	onEvent func(Event)
	events  []Event
	stats   Stats
	err     error
}

// New attaches a reconfiguration manager to a machine built with
// Config.Reconfig set, and installs itself as the machine's reconfigurer:
// from now on FailNow defers its policy update to the manager.
func New(m *core.Machine) (*Manager, error) {
	mode := m.ReconfigMode()
	if mode == "" {
		return nil, fmt.Errorf("reconfig: machine was built without Config.Reconfig")
	}
	mgr := &Manager{m: m, mode: mode}
	m.SetReconfigurer(func(f fault.Fault) error { return mgr.attempt(TriggerFault, f) })
	return mgr, nil
}

// CoversDeadlock reports whether the machine's mode reconfigures on
// confirmed deadlocks as well as on mid-run faults.
func (mgr *Manager) CoversDeadlock() bool { return mgr.mode == core.ReconfigBoth }

// OnEvent registers a callback invoked synchronously for every
// reconfiguration event, after the outcome is committed. Must be
// deterministic if the run is to stay so.
func (mgr *Manager) OnEvent(fn func(Event)) { mgr.onEvent = fn }

// Events returns the reconfiguration attempts so far, in order.
func (mgr *Manager) Events() []Event { return mgr.events }

// Stats returns a snapshot of the accounting.
func (mgr *Manager) Stats() Stats { return mgr.stats }

// Err reports a deferred failure from the deadlock hand-off (whose hook
// signature cannot propagate one). Campaign steppers poll it like the
// injector's Err.
func (mgr *Manager) Err() error { return mgr.err }

// OnDeadlock is the recovery supervisor's hand-off: called after a confirmed
// deadlock's victim was purged and its retransmission scheduled. Matches
// recovery.Supervisor.OnDeadlock's hook signature; failures are deferred to
// Err.
func (mgr *Manager) OnDeadlock(cycle int64) {
	if !mgr.CoversDeadlock() || mgr.err != nil {
		return
	}
	if err := mgr.attempt(TriggerDeadlock, fault.Fault{}); err != nil {
		mgr.err = fmt.Errorf("reconfig: deadlock-triggered attempt at cycle %d: %w", cycle, err)
	}
}

// attempt runs one full reconfiguration decision. It returns an error only
// when no candidate could be built or the commit fails; every routing-level
// refusal is an outcome, not an error.
func (mgr *Manager) attempt(trigger string, f fault.Fault) error {
	m := mgr.m
	mgr.stats.Attempts++
	ev := Event{Cycle: m.Cycle(), Trigger: trigger, Fault: f}

	// Candidate tables, most-capable first: the current variant, then — when
	// that variant still separates the D-XB — the unified degradation.
	variants := []bool{m.VariantSeparate()}
	if m.VariantSeparate() {
		variants = append(variants, false)
	}
	// chosen is the last candidate that built: the first admissible one, or,
	// when none is, the most degraded. Whatever the outcome, it is the table
	// the attempt installs.
	var (
		chosen    *routing.Policy
		chosenSep bool
		graph     *cdg.Graph
	)
	for _, sep := range variants {
		p, err := routing.New(m.RoutingConfig(sep))
		if err != nil {
			ev.Errors = append(ev.Errors, err.Error())
			continue
		}
		// The candidate's own dependence graph — the same construction as
		// mdxcert's static proof — registered once: its certificate now, the
		// transition's from the same graph below.
		g := cdg.NewGraph(p, m.Shape())
		cert := g.Certificate(cdg.SchemeName(p, m.Shape()))
		chosen, chosenSep, ev.Scheme = p, sep, cert.Scheme
		if !cert.Acyclic {
			ev.Refusals = append(ev.Refusals, cert)
			mgr.stats.Refusals++
			continue
		}
		graph, ev.Candidate = g, cert
		break
	}
	if chosen == nil {
		return fmt.Errorf("reconfig: no candidate could be built: %s", strings.Join(ev.Errors, "; "))
	}
	if graph == nil {
		return mgr.fallback(ev, chosen, chosenSep, "no admissible candidate")
	}
	if mgr.routesOn(chosen) {
		// Every generation already decides as the candidate would: a commit
		// would change no route, so the tables and the epoch stay.
		ev.Outcome, ev.Epoch = OutcomeUnchanged, m.Epoch()
		mgr.record(ev)
		return nil
	}

	// The union proof: candidate CDG plus every live retiring edge of the
	// classes actually in flight.
	hdrs, unknown := m.Engine().InFlightHeaders()
	ev.InFlight = len(hdrs) + len(unknown)
	mgr.addRetiringEdges(graph, chosen, hdrs, len(unknown) > 0)
	ev.Union = graph.Certificate(ev.Candidate.Scheme + "+transition")
	if !ev.Union.Acyclic {
		// Cyclic transition: install the candidate in place and leave any
		// deadlock to the recovery supervisor; the event keeps the union and
		// its witness.
		return mgr.fallback(ev, chosen, chosenSep, fmt.Sprintf("union cyclic (length %d), %d in flight", len(ev.Union.Cycle), ev.InFlight))
	}
	if err := m.CommitGeneration(chosen, chosenSep, hdrs, unknown); err != nil {
		return fmt.Errorf("reconfig: committing generation: %w", err)
	}
	ev.Outcome, ev.Epoch = OutcomeHotSwap, m.Epoch()
	mgr.stats.HotSwaps++
	mgr.record(ev)
	return nil
}

// fallback degrades the attempt to the swap-in-place onto p, the attempt's
// chosen candidate built for variant sep, and records it: the empty census
// leaves p alone, routing every epoch.
func (mgr *Manager) fallback(ev Event, p *routing.Policy, sep bool, reason string) error {
	ev.Outcome, ev.Reason = OutcomeFallback, reason
	mgr.stats.Fallbacks++
	if err := mgr.m.CommitGeneration(p, sep, nil, nil); err != nil {
		return fmt.Errorf("reconfig: fallback: %w", err)
	}
	ev.Epoch = mgr.m.Epoch()
	mgr.record(ev)
	return nil
}

// routesOn reports whether every generation of the machine routes on p's
// effective S-XB and D-XB lines. Against the one live fault set such a
// generation decides exactly as p does (the variant only picks the D
// line), so committing p would change no route.
func (mgr *Manager) routesOn(p *routing.Policy) bool {
	for _, g := range mgr.m.Generations() {
		if !sameLines(g.Policy, p) {
			return false
		}
	}
	return true
}

// sameLines reports whether two policies route on the same effective S-XB
// and D-XB lines.
func sameLines(a, b *routing.Policy) bool {
	return a.EffectiveSXB() == b.EffectiveSXB() && a.EffectiveDXB() == b.EffectiveDXB()
}

func (mgr *Manager) record(ev Event) {
	mgr.events = append(mgr.events, ev)
	if mgr.onEvent != nil {
		mgr.onEvent(ev)
	}
}

// addRetiringEdges adds the old-table half of the union graph to the
// candidate's: for every generation with traffic in flight, the contracted
// edges of its policy — its own effective lines against the live fault set —
// in the classes that traffic can occupy, restricted to still-live channels.
// A packet whose header flit is unlocatable could belong to any generation
// and either class, so it pins everything.
func (mgr *Manager) addRetiringEdges(graph *cdg.Graph, candidate *routing.Policy, hdrs []*flit.Header, anyUnknown bool) {
	m := mgr.m
	gens := m.Generations()
	type classes struct{ unicast, broadcast bool }
	cl := make([]classes, len(gens))
	if anyUnknown {
		for i := range cl {
			cl[i] = classes{unicast: true, broadcast: true}
		}
	}
	for _, h := range hdrs {
		gi := routing.GenerationIndex(gens, h.Epoch)
		switch h.RC {
		case flit.RCNormal, flit.RCDetour:
			cl[gi].unicast = true
		case flit.RCBroadcastRequest, flit.RCBroadcast:
			cl[gi].broadcast = true
		}
	}
	for i, g := range gens {
		if !cl[i].unicast && !cl[i].broadcast {
			continue
		}
		if sameLines(g.Policy, candidate) {
			// On the candidate's own effective lines against the same live
			// fault set, the generation decides exactly as the candidate does
			// (the variant only picks the D line): every edge it could add is
			// one the graph already holds.
			continue
		}
		if cl[i].unicast {
			graph.AddLiveEdges(cdg.UnicastEdges(g.Policy, m.Shape()), m.Faults())
		}
		if cl[i].broadcast {
			graph.AddLiveEdges(cdg.BroadcastEdges(g.Policy, m.Shape()), m.Faults())
		}
	}
}
