// Package recovery closes the loop from deadlock *detection* to forward
// progress. The deadlock package diagnoses a wait cycle and the inject
// package retransmits lost packets, but until now a confirmed deadlock
// still wedged the run. The Supervisor turns the diagnosis into a liveness
// guarantee:
//
//  1. its own progress watchdog fires after StallThreshold zero-movement
//     cycles, and deadlock.Analyze confirms (or refutes) a wait cycle;
//  2. a deterministic victim selector picks the lowest packet ID on the
//     cycle — a rule that depends only on simulation state, so it is stable
//     across runs, hosts and -parallel widths;
//  3. the victim is purged with the engine's credit-conserving KillPacket
//     path (core.PurgePacket) — every resource it held is released exactly
//     as forwarding would release it, so the packets it was deadlocked
//     against resume — and handed to inject's retransmission machinery;
//  4. a per-packet recovery cap bounds the sacrifice: a packet purged more
//     than MaxRecoveries times escalates to a classified livelock verdict
//     (ErrLivelock) instead of an infinite purge/retry loop.
//
// Every action happens in the engine's PostCycle hook at a deterministic
// cycle, so a recovered run has one per-cycle StateHash stream — snapshots
// taken mid-recovery restore to it exactly (pinned by this package's
// tests).
//
// Independently, AnalyzeReachability (reach.go) classifies every src/dst
// pair of a traffic pattern against the faulted topology up front, so that
// when a second concurrent fault makes the hardware detour impossible the
// campaign layer reports exact per-pair ErrUnreachable counts instead of
// stalling until a watchdog gives up.
package recovery

import (
	"errors"
	"fmt"

	"sr2201/internal/core"
	"sr2201/internal/deadlock"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
)

// ErrLivelock classifies a run abandoned because some packet exceeded the
// per-packet recovery cap: purging it kept dissolving the cycle, but the
// retransmission re-deadlocked every time.
var ErrLivelock = errors.New("recovery: livelock (per-packet recovery cap exceeded)")

// DefaultMaxRecoveries is the default per-packet sacrifice cap.
const DefaultMaxRecoveries = 3

// Options tune the recovery supervisor. The JSON names are the job-spec
// and replay-recording spelling.
type Options struct {
	// Enabled turns the supervisor on. The zero value leaves runs exactly
	// as they were: detection without recovery.
	Enabled bool `json:"enabled,omitempty"`
	// StallThreshold is the zero-movement cycle count after which the
	// supervisor's watchdog fires. <= 0 selects
	// deadlock.DefaultStallThreshold.
	StallThreshold int64 `json:"stall_threshold,omitempty"`
	// MaxRecoveries caps how many times one logical packet may be
	// sacrificed before the run escalates to ErrLivelock. <= 0 selects
	// DefaultMaxRecoveries.
	MaxRecoveries int `json:"max_recoveries,omitempty"`
}

// Normalize applies the documented defaults in place.
func (o *Options) Normalize() {
	if o.StallThreshold <= 0 {
		o.StallThreshold = deadlock.DefaultStallThreshold
	}
	if o.MaxRecoveries <= 0 {
		o.MaxRecoveries = DefaultMaxRecoveries
	}
}

// Event records one recovery action: a victim purged from a confirmed wait
// cycle.
type Event struct {
	// Cycle is the simulation time of the purge.
	Cycle int64
	// Victim is the purged packet's ID (the lowest on the wait cycle).
	Victim uint64
	// Known, Src, Dst, Size describe the victim's header if one survived
	// anywhere in the network (core.Lost semantics).
	Known    bool
	Src, Dst geom.Coord
	Size     int
	// CycleLen is the length of the dissolved wait cycle.
	CycleLen int
	// Attempt numbers this sacrifice of the logical packet, starting at 1.
	Attempt int
	// Retransmit reports whether inject scheduled a re-send of the victim
	// (false for untraceable or non-unicast victims: their loss is final).
	Retransmit bool
}

// String renders the event as one line, used verbatim by the single-run
// report.
func (ev Event) String() string {
	what := fmt.Sprintf("pkt %d", ev.Victim)
	if ev.Known {
		what = fmt.Sprintf("pkt %d (%v -> %v, %d flits)", ev.Victim, ev.Src, ev.Dst, ev.Size)
	}
	tail := "retransmit scheduled"
	if !ev.Retransmit {
		tail = "loss is final"
	}
	return fmt.Sprintf("recovery @ cycle %d: wait cycle of length %d, victim %s, attempt %d, %s",
		ev.Cycle, ev.CycleLen, what, ev.Attempt, tail)
}

// Stats aggregates the supervisor's accounting.
type Stats struct {
	// StallsDetected counts watchdog firings (each is analyzed; not every
	// one is a deadlock).
	StallsDetected int
	// Recoveries counts victims purged from confirmed wait cycles.
	Recoveries int
	// VictimsUnrecoverable counts purged victims inject could not
	// retransmit (untraceable header or non-unicast traffic).
	VictimsUnrecoverable int
}

// Verdict is the supervisor's terminal classification of a run it could not
// keep alive. A decided verdict ends the run; the supervisor takes no
// further action.
type Verdict struct {
	// Decided marks a terminal verdict.
	Decided bool
	// Deadlocked is true when a wait cycle was confirmed but could not be
	// dissolved (no victim header found, or the cap was hit). False with
	// Decided means a stall without cyclic waiting (starvation/wedge).
	Deadlocked bool
	// Livelocked is true when the per-packet recovery cap was exceeded —
	// the ErrLivelock class. Implies Deadlocked.
	Livelocked bool
	// Cycle is the simulation time of the verdict.
	Cycle int64
	// Report is the wait-for-graph analysis behind the verdict. Diagnostic
	// only: it holds live engine pointers and is not part of snapshots.
	Report deadlock.Report
}

// Err maps the verdict to its classified error: ErrLivelock for a livelock,
// nil otherwise (deadlock/stall verdicts are reported through the existing
// outcome fields).
func (v Verdict) Err() error {
	if v.Livelocked {
		return ErrLivelock
	}
	return nil
}

// Supervisor is the liveness layer bound to one machine + injector pair. It
// installs itself on the engine's PostCycle hook (chaining any handler
// already there) and acts between cycles, never inside a phase.
type Supervisor struct {
	m   *core.Machine
	inj *inject.Injector
	opt Options
	wd  *deadlock.Watchdog

	verdict    Verdict
	stats      Stats
	events     []Event
	onEvent    func(Event)
	onDeadlock func(cycle int64)
}

// New attaches a supervisor to a machine and its injector (required: the
// injector owns the per-packet attempt history and the retransmission
// machinery the victims are handed to). Options are normalized with the
// documented defaults.
func New(m *core.Machine, inj *inject.Injector, opt Options) *Supervisor {
	if inj == nil {
		panic("recovery: New needs an injector")
	}
	opt.Normalize()
	s := &Supervisor{
		m:   m,
		inj: inj,
		opt: opt,
		wd:  deadlock.NewWatchdog(m.Engine(), opt.StallThreshold),
	}
	eng := m.Engine()
	prev := eng.PostCycle
	eng.PostCycle = func(c int64) {
		if prev != nil {
			prev(c)
		}
		s.tick(c)
	}
	return s
}

// OnEvent registers a callback invoked synchronously for every recovery
// event, after the purge and the retransmission hand-off. Must be
// deterministic if the run is to stay so.
func (s *Supervisor) OnEvent(fn func(Event)) { s.onEvent = fn }

// OnDeadlock registers a hand-off invoked after every successful victim
// purge, once the retransmission is scheduled and the event recorded: the
// hook where the reconfiguration manager reacts to a *confirmed* deadlock by
// recompiling the routing policy around the implicated resources. Runs in
// the PostCycle hook, so any policy swap it performs lands between cycles;
// it must be deterministic if the run is to stay so.
func (s *Supervisor) OnDeadlock(fn func(cycle int64)) { s.onDeadlock = fn }

// tick runs at the bottom of every engine Step.
func (s *Supervisor) tick(cycle int64) {
	if s.verdict.Decided || !s.wd.Stalled() {
		return
	}
	s.stats.StallsDetected++
	rep := deadlock.Analyze(s.m.Engine())
	if !rep.Deadlocked {
		// A stall without cyclic waiting: purging would not help (nothing
		// is waiting on a cycle), so classify and stop.
		s.verdict = Verdict{Decided: true, Cycle: cycle, Report: rep}
		return
	}
	victim, found := rep.Victim()
	if !found {
		// A cycle with no owning headers cannot be dissolved by a packet
		// purge; report the deadlock as-is.
		s.verdict = Verdict{Decided: true, Deadlocked: true, Cycle: cycle, Report: rep}
		return
	}
	attempt := s.inj.Victimized(victim) + 1
	if attempt > s.opt.MaxRecoveries {
		s.verdict = Verdict{Decided: true, Deadlocked: true, Livelocked: true, Cycle: cycle, Report: rep}
		return
	}
	lost, ok := s.m.PurgePacket(victim)
	if !ok {
		// The cycle names a packet with no physical trace — treat like the
		// header-less case above.
		s.verdict = Verdict{Decided: true, Deadlocked: true, Cycle: cycle, Report: rep}
		return
	}
	retx := s.inj.LoseVictim(cycle, lost)
	ev := Event{
		Cycle:      cycle,
		Victim:     victim,
		Known:      lost.Known,
		Src:        lost.Src,
		Dst:        lost.Dst,
		Size:       lost.Size,
		CycleLen:   len(rep.Cycle),
		Attempt:    attempt,
		Retransmit: retx,
	}
	s.events = append(s.events, ev)
	s.stats.Recoveries++
	if !retx {
		s.stats.VictimsUnrecoverable++
	}
	if s.onEvent != nil {
		s.onEvent(ev)
	}
	if s.onDeadlock != nil {
		s.onDeadlock(cycle)
	}
	// The purge frees resources but moves no flits; without a reset the
	// watchdog would re-fire next cycle on the not-yet-resumed network.
	s.wd.Reset()
}

// Verdict returns the supervisor's terminal classification (zero value
// until decided).
func (s *Supervisor) Verdict() Verdict { return s.verdict }

// Stats returns a snapshot of the accounting.
func (s *Supervisor) Stats() Stats { return s.stats }

// Events returns the recovery actions taken so far, in order.
func (s *Supervisor) Events() []Event { return s.events }

// Options returns the supervisor's normalized options.
func (s *Supervisor) Options() Options { return s.opt }
