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
// every static scheme. The degradation ladder when the proof fails:
//
//  1. statically cyclic candidates are refused outright, each with a concrete
//     cycle witness recorded on the event;
//  2. a statically admissible candidate whose union graph is cyclic triggers
//     a bounded drain: if the in-flight population fits the drain budget,
//     every pre-swap packet is purged (and handed to inject's retransmission
//     machinery via OnDrained), after which the union collapses to the
//     candidate's own certified graph and the swap commits;
//  3. otherwise the Manager falls back to Machine.RebuildPolicy — the PR 5
//     swap-in-place whose transition deadlocks are the recovery supervisor's
//     to purge and retransmit.
//
// The drain scope is deliberately *all* old-epoch packets, not just the
// classes on the offending cycle: a retiring normal-class packet that meets
// the new fault mutates to the detour class mid-flight, so no class
// subset of a retiring generation is closed under routing. (Class filtering
// is still sound for the union *proof*, which asks what edges can be held,
// per class, by the packets currently in flight — the pinned generation
// snapshot includes each class's detour continuations.)
//
// Every decision runs synchronously inside a deterministic hook (FailNow's
// reconfigurer or the recovery supervisor's PostCycle hand-off), so runs stay
// byte-identical across -parallel widths and snapshot/restore.
package reconfig

import (
	"fmt"
	"sort"

	"sr2201/internal/cdg"
	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/routing"
	"sr2201/internal/topo"
)

// DefaultDrainBudget bounds how many in-flight packets a cyclic transition
// may purge before the Manager prefers the rebuild-in-place fallback.
const DefaultDrainBudget = 16

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
	// OutcomeDrain means the union graph was cyclic but the in-flight
	// population fit the budget: every pre-swap packet was purged and the
	// swap committed.
	OutcomeDrain = "drain"
	// OutcomeFallback means no admissible transition existed (every
	// candidate statically cyclic or unbuildable, or the drain budget was
	// exceeded) and the Manager degraded to Machine.RebuildPolicy.
	OutcomeFallback = "fallback"
)

// Options tune the reconfiguration manager.
type Options struct {
	// DrainBudget caps how many in-flight packets a cyclic transition may
	// purge; beyond it the Manager falls back to rebuild-in-place. <= 0
	// selects DefaultDrainBudget.
	DrainBudget int
}

// Normalize applies the documented defaults in place.
func (o *Options) Normalize() {
	if o.DrainBudget <= 0 {
		o.DrainBudget = DefaultDrainBudget
	}
}

// Event records one reconfiguration attempt, whatever its outcome.
type Event struct {
	// Cycle is the simulation time of the attempt.
	Cycle int64
	// Trigger is TriggerFault or TriggerDeadlock.
	Trigger string
	// Fault is the fault that fired the attempt (zero for TriggerDeadlock).
	Fault fault.Fault
	// Outcome is OutcomeHotSwap, OutcomeDrain or OutcomeFallback.
	Outcome string
	// Reason explains a fallback ("no admissible candidate", "drain budget
	// exceeded ..."); empty otherwise.
	Reason string
	// Epoch is the committed generation's epoch stamp (hot-swap and drain).
	Epoch uint64
	// Scheme names the committed candidate (hot-swap and drain).
	Scheme string
	// InFlight counts the packets resident in the network at decision time.
	InFlight int
	// Drained counts the packets purged by a bounded drain.
	Drained int
	// Refusals holds the static certificate of every candidate refused for
	// a concrete dependence cycle, in trial order. Each carries its cycle
	// witness.
	Refusals []topo.Certificate
	// Errors lists candidates that could not even be built against the
	// fault set (no effective line available), in trial order.
	Errors []string
	// Candidate is the committed candidate's static certificate (zero
	// value when the attempt fell back before choosing one).
	Candidate topo.Certificate
	// Union is the transition certificate: the candidate's CDG plus all
	// live retiring edges. Acyclic for a hot swap; for a drain it is the
	// cyclic certificate (with witness) that forced the purge.
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
	case OutcomeDrain:
		return fmt.Sprintf("reconfig @ cycle %d (%s): union cyclic (length %d), drained %d of %d in flight, swap to epoch %d [%s]",
			ev.Cycle, trig, len(ev.Union.Cycle), ev.Drained, ev.InFlight, ev.Epoch, ev.Scheme)
	default:
		return fmt.Sprintf("reconfig @ cycle %d (%s): fell back to rebuild-in-place (%s)",
			ev.Cycle, trig, ev.Reason)
	}
}

// Stats aggregates the Manager's accounting.
type Stats struct {
	// Attempts counts reconfiguration attempts (one per trigger firing).
	Attempts int
	// HotSwaps counts attempts committed without disturbing a packet.
	HotSwaps int
	// Drains counts attempts committed after a bounded drain.
	Drains int
	// DrainedPackets totals the packets purged across all drains.
	DrainedPackets int
	// Fallbacks counts attempts degraded to rebuild-in-place.
	Fallbacks int
	// Refusals counts statically cyclic candidates refused across all
	// attempts.
	Refusals int
}

// Manager drives online reconfiguration for one machine. Build it with New
// (which installs the machine's fault hook), wire OnDeadlock into the
// recovery supervisor when the mode covers deadlocks, and point OnDrained at
// the injector's drain accounting so purged packets are retransmitted.
type Manager struct {
	m    *core.Machine
	mode string
	opt  Options

	onDrained func(cycle int64, l core.Lost) bool
	onEvent   func(Event)
	events    []Event
	stats     Stats
	err       error
}

// New attaches a reconfiguration manager to a machine built with
// Config.Reconfig set, and installs itself as the machine's reconfigurer:
// from now on FailNow defers its policy update to the manager. Options are
// normalized with the documented defaults.
func New(m *core.Machine, opt Options) (*Manager, error) {
	mode := m.ReconfigMode()
	if mode == "" {
		return nil, fmt.Errorf("reconfig: machine was built without Config.Reconfig")
	}
	opt.Normalize()
	mgr := &Manager{m: m, mode: mode, opt: opt}
	m.SetReconfigurer(mgr.onFault)
	return mgr, nil
}

// CoversFault reports whether the machine's mode reconfigures on mid-run
// faults.
func (mgr *Manager) CoversFault() bool {
	return mgr.mode == core.ReconfigOnFault || mgr.mode == core.ReconfigBoth
}

// CoversDeadlock reports whether the machine's mode reconfigures on
// confirmed deadlocks.
func (mgr *Manager) CoversDeadlock() bool {
	return mgr.mode == core.ReconfigOnDeadlock || mgr.mode == core.ReconfigBoth
}

// OnDrained registers the sink for packets purged by a bounded drain —
// normally inject.Injector.LoseDrained, which schedules the retransmission
// and keeps drain losses apart from fault casualties and recovery victims.
// Must be deterministic if the run is to stay so.
func (mgr *Manager) OnDrained(fn func(cycle int64, l core.Lost) bool) { mgr.onDrained = fn }

// OnEvent registers a callback invoked synchronously for every
// reconfiguration event, after the outcome is committed. Must be
// deterministic if the run is to stay so.
func (mgr *Manager) OnEvent(fn func(Event)) { mgr.onEvent = fn }

// Events returns the reconfiguration attempts so far, in order.
func (mgr *Manager) Events() []Event { return mgr.events }

// Stats returns a snapshot of the accounting.
func (mgr *Manager) Stats() Stats { return mgr.stats }

// Options returns the manager's normalized options.
func (mgr *Manager) Options() Options { return mgr.opt }

// Err reports a deferred failure from the deadlock hand-off (whose hook
// signature cannot propagate one). Campaign steppers poll it like the
// injector's Err.
func (mgr *Manager) Err() error { return mgr.err }

// onFault is the machine's reconfigurer hook: FailNow calls it after the
// fault set is updated and the dead switch's packets are purged.
func (mgr *Manager) onFault(f fault.Fault) error {
	if !mgr.CoversFault() {
		// The mode keeps PR 5 semantics for faults: rebuild in place for all
		// traffic, no event recorded (nothing was attempted).
		return mgr.m.RebuildPolicy()
	}
	return mgr.attempt(TriggerFault, f)
}

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
// for infrastructure failures (a fallback rebuild that cannot produce any
// policy); every routing-level refusal is an outcome, not an error.
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
		if !cert.Acyclic {
			ev.Refusals = append(ev.Refusals, cert)
			mgr.stats.Refusals++
			continue
		}
		chosen, chosenSep, graph, ev.Candidate = p, sep, g, cert
		break
	}
	if chosen == nil {
		return mgr.fallback(ev, "no admissible candidate")
	}
	ev.Scheme = ev.Candidate.Scheme

	// The union proof: candidate CDG plus every live retiring edge of the
	// classes actually in flight.
	hdrs, unknown := m.Engine().InFlightHeaders()
	ev.InFlight = len(hdrs) + len(unknown)
	if err := mgr.addRetiringEdges(graph, chosen, hdrs, len(unknown) > 0); err != nil {
		return mgr.fallback(ev, fmt.Sprintf("retiring-edge snapshot failed: %v", err))
	}
	union := graph.Certificate(ev.Candidate.Scheme + "+transition")
	ev.Union = union
	if union.Acyclic {
		if err := m.CommitGeneration(chosen, chosenSep); err != nil {
			return fmt.Errorf("reconfig: committing generation: %w", err)
		}
		ev.Outcome, ev.Epoch = OutcomeHotSwap, m.Epoch()
		mgr.stats.HotSwaps++
		mgr.record(ev)
		return nil
	}

	// Cyclic transition: bounded drain of *every* pre-swap packet (see the
	// package comment for why no subset is closed under routing), then the
	// union collapses to the candidate's own certified graph.
	if ev.InFlight > mgr.opt.DrainBudget {
		return mgr.fallback(ev, fmt.Sprintf("drain budget exceeded (%d in flight > %d)", ev.InFlight, mgr.opt.DrainBudget))
	}
	ids := make([]uint64, 0, ev.InFlight)
	for _, h := range hdrs {
		ids = append(ids, h.PacketID)
	}
	ids = append(ids, unknown...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		l, ok := m.PurgePacket(id)
		if !ok {
			continue
		}
		l.Drained = true
		ev.Drained++
		mgr.stats.DrainedPackets++
		if mgr.onDrained != nil {
			mgr.onDrained(ev.Cycle, l)
		}
	}
	if err := m.CommitGeneration(chosen, chosenSep); err != nil {
		return fmt.Errorf("reconfig: committing generation after drain: %w", err)
	}
	ev.Outcome, ev.Epoch = OutcomeDrain, m.Epoch()
	mgr.stats.Drains++
	mgr.record(ev)
	return nil
}

// fallback degrades the attempt to the PR 5 swap-in-place and records it.
func (mgr *Manager) fallback(ev Event, reason string) error {
	ev.Outcome, ev.Reason = OutcomeFallback, reason
	mgr.stats.Fallbacks++
	if err := mgr.m.RebuildPolicy(); err != nil {
		return fmt.Errorf("reconfig: fallback rebuild: %w", err)
	}
	mgr.record(ev)
	return nil
}

func (mgr *Manager) record(ev Event) {
	mgr.events = append(mgr.events, ev)
	if mgr.onEvent != nil {
		mgr.onEvent(ev)
	}
}

// addRetiringEdges adds the old-table half of the union graph to the
// candidate's: for every generation with traffic in flight, the pinned
// reconstruction's contracted edges of the classes that traffic can occupy,
// restricted to still-live channels. A packet whose header flit is
// unlocatable could belong to any generation and either class, so it pins
// everything.
func (mgr *Manager) addRetiringEdges(graph *cdg.Graph, candidate *routing.Policy, hdrs []*flit.Header, anyUnknown bool) error {
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
		gi := generationIndex(gens, h.Epoch)
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
		if g.SEff == candidate.EffectiveSXB().Fixed && g.DEff == candidate.EffectiveDXB().Fixed {
			// Pinned to the candidate's own effective lines against the same
			// live fault set, the generation decides exactly as the candidate
			// does (the variant only picks the D line): every edge it could
			// add is one the graph already holds.
			continue
		}
		pinned, err := routing.NewPinned(m.RoutingConfig(g.Separate), g.SEff, g.DEff)
		if err != nil {
			return fmt.Errorf("pinning generation %d: %w", i, err)
		}
		if cl[i].unicast {
			graph.AddLiveEdges(cdg.UnicastEdges(pinned, m.Shape()), m.Faults())
		}
		if cl[i].broadcast {
			graph.AddLiveEdges(cdg.BroadcastEdges(pinned, m.Shape()), m.Faults())
		}
	}
	return nil
}

// generationIndex mirrors the machine's epoch-to-generation mapping: the last
// generation whose boundary does not exceed the stamp.
func generationIndex(gens []routing.Generation, epoch uint64) int {
	idx := 0
	for i, g := range gens {
		if g.Boundary > epoch {
			break
		}
		idx = i
	}
	return idx
}
