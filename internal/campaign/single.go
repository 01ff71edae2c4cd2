package campaign

// Single-schedule runs: one machine driven through a scheduled mid-run fault
// sequence, reporting each event's in-flight casualties and the final
// retransmission accounting. This is mdxfault's single mode, extracted so
// the job server produces the exact same bytes: both call RunSingle with an
// io.Writer (the CLI passes os.Stdout, the server a buffer), making the HTTP
// artifact byte-identical to the CLI stdout by construction.

import (
	"fmt"
	"io"
	"strings"

	"sr2201/internal/core"
	"sr2201/internal/deadlock"
	"sr2201/internal/inject"
	"sr2201/internal/reconfig"
	"sr2201/internal/recovery"
	"sr2201/internal/stats"
)

// SingleRun renders a CellRun as mdxfault's single-mode report: it owns the
// writer and the three print cursors, nothing else. The cell does the
// stepping, so a caller (the job server) can park the run as a Mark between
// Steps and, after a crash, resume it by re-executing a fresh run to the
// Mark (Seek): the report stream is rendered again from the start, byte for
// byte.
type SingleRun struct {
	c *CellRun
	w io.Writer

	// Print cursors into the injector's casualty list, the supervisor's
	// event list and the manager's event list.
	reported, reportedRecov, reportedReconfig int
}

// NewSingleRun builds the run and writes the report preamble (header plus
// schedule lines) to w.
func NewSingleRun(spec Spec, w io.Writer) (*SingleRun, error) {
	r := &SingleRun{w: w}
	if onRecovery := spec.OnRecovery; spec.Recovery.Enabled {
		// Recovery lines print while the step that purged the victim is
		// still running, so the renderer sits in front of the caller's hook.
		spec.OnRecovery = func(ev recovery.Event) {
			fmt.Fprintf(w, "%s\n", ev)
			r.reportedRecov++
			if onRecovery != nil {
				onRecovery(ev)
			}
		}
	}
	c, err := newCellRun(spec)
	if err != nil {
		return nil, err
	}
	r.c = c
	spec = c.spec // normalized
	if spec.Topology != "" && spec.Topology != core.TopologyMDX {
		fmt.Fprintf(w, "topology=%s\n", spec.Topology)
	}
	fmt.Fprintf(w, "shape=%v pattern=%s waves=%d gap=%d retransmit=%v\n",
		spec.Shape, spec.Pattern.Name, spec.Waves, spec.Gap, spec.Inject.Retransmit)
	for _, f := range spec.Preset {
		fmt.Fprintf(w, "preset: %s\n", f)
	}
	for _, ev := range spec.Events {
		fmt.Fprintf(w, "scheduled: %s @ cycle %d\n", ev.Fault, ev.Cycle)
	}
	for _, b := range spec.Broadcasts {
		fmt.Fprintf(w, "scheduled: broadcast from %v @ cycle %d\n", b.Src, b.Cycle)
	}
	if c.sup != nil {
		opt := c.sup.Options()
		fmt.Fprintf(w, "recovery: enabled (stall-threshold=%d max-recoveries=%d)\n",
			opt.StallThreshold, opt.MaxRecoveries)
	}
	if c.mgr != nil {
		fmt.Fprintf(w, "reconfig: enabled (mode=%s)\n", spec.Reconfig)
	}
	return r, nil
}

// Cell exposes the run's stepper (its machine, cycle and tally).
func (r *SingleRun) Cell() *CellRun { return r.c }

// Cycle returns the run's current simulation time.
func (r *SingleRun) Cycle() int64 { return r.c.Cycle() }

func (r *SingleRun) printCasualty(c inject.Casualty) {
	fmt.Fprintf(r.w, "cycle %d: %s fails — %d packet(s) killed in flight\n",
		c.Cycle, c.Fault, len(c.Lost))
	for _, l := range c.Lost {
		if l.Known {
			fmt.Fprintf(r.w, "  killed pkt %d: %v -> %v (rc=%d, %d flits)\n",
				l.PacketID, l.Src, l.Dst, l.RC, l.Size)
		} else {
			fmt.Fprintf(r.w, "  killed pkt %d: header untraceable\n", l.PacketID)
		}
	}
}

// printReconfig renders one reconfiguration attempt: the event line plus the
// concrete witnesses — every statically refused candidate's dependence cycle
// and, when a cyclic union forced the fallback, the union's. All
// deterministic (the prover's cycle search is id-ordered), so the block is
// replay-stable.
func (r *SingleRun) printReconfig(ev reconfig.Event) {
	fmt.Fprintf(r.w, "%s\n", ev)
	for _, ref := range ev.Refusals {
		fmt.Fprintf(r.w, "  refused %s: cycle [%s]\n", ref.Scheme, strings.Join(ref.Cycle, " -> "))
	}
	for _, msg := range ev.Errors {
		fmt.Fprintf(r.w, "  unbuildable candidate: %s\n", msg)
	}
	if len(ev.Union.Cycle) > 0 {
		fmt.Fprintf(r.w, "  union cycle [%s]\n", strings.Join(ev.Union.Cycle, " -> "))
	}
}

// Step advances the cell one cycle, then reports the casualties and
// reconfigurations the cycle produced, and returns true when the run is
// finished.
func (r *SingleRun) Step() bool {
	done := r.c.Step()
	for _, c := range r.c.inj.Casualties()[r.reported:] {
		r.printCasualty(c)
		r.reported++
	}
	if r.c.mgr != nil {
		for _, ev := range r.c.mgr.Events()[r.reportedReconfig:] {
			r.printReconfig(ev)
			r.reportedReconfig++
		}
	}
	return done
}

// Mark returns the run's current cycle and state hash.
func (r *SingleRun) Mark() Mark { return r.c.Mark() }

// Seek re-executes a fresh run to mk.Cycle, rendering as it goes, and checks
// its state hash there; an error wraps ErrDiverged (or is the spec's
// Ctx.Err()).
func (r *SingleRun) Seek(mk Mark) error { return seek(r.c.spec.Ctx, r, mk) }

// Drive steps the run to its verdict, polling the spec's Ctx; with park
// non-nil it hands over the run's Mark every parkEvery cycles and a last one
// when Ctx cancels, before returning ctx.Err().
func (r *SingleRun) Drive(park func(Mark)) error {
	return drive(r.c.spec.Ctx, r, park)
}

// Finish writes the accounting table and outcome line and returns the
// outcome. Call once, after Step reports done (calling it on an unfinished
// run reports on the traffic so far).
func (r *SingleRun) Finish() (deadlock.Outcome, error) {
	res, err := r.c.Tally()
	outcome := deadlock.Outcome{Drained: res.Drained, Stalled: res.Stalled, Deadlocked: res.Deadlocked, Cycle: res.EndCycle}
	if err != nil {
		return outcome, err
	}
	st := res.Stats
	t := stats.NewTable("dynamic-fault accounting",
		"offered", "accepted", "refused", "bcast", "delivered", "bcopies",
		"killed", "victims", "retx", "recovered", "lost-unreach", "lost-exhaust", "dup")
	t.AddRow(res.Offered, res.Accepted, res.Refused, res.Broadcasts, res.Delivered, res.BroadcastCopies,
		st.KilledInFlight+st.DropsEnRoute, st.Victims, st.Retransmits, st.Recovered,
		st.LostUnreachable, st.LostExhausted, st.Duplicates)
	fmt.Fprintln(r.w)
	fmt.Fprint(r.w, t.String())
	if r.c.sup != nil {
		s := r.c.sup.Stats()
		fmt.Fprintf(r.w, "recoveries: %d (stalls detected %d, unrecoverable %d)\n",
			s.Recoveries, s.StallsDetected, s.VictimsUnrecoverable)
	}
	if r.c.mgr != nil {
		s := r.c.mgr.Stats()
		fmt.Fprintf(r.w, "reconfig: %d attempts, %d hot swaps, %d fallbacks, %d refusals\n",
			s.Attempts, s.HotSwaps, s.Fallbacks, s.Refusals)
	}
	switch {
	case res.Livelocked:
		fmt.Fprintf(r.w, "outcome: LIVELOCK at cycle %d (per-packet recovery cap exceeded)\n", outcome.Cycle)
	case outcome.Deadlocked:
		fmt.Fprintf(r.w, "outcome: DEADLOCK at cycle %d\n", outcome.Cycle)
	case outcome.Stalled:
		fmt.Fprintf(r.w, "outcome: stalled at cycle %d (no cyclic wait)\n", outcome.Cycle)
	case outcome.Drained:
		fmt.Fprintf(r.w, "outcome: drained at cycle %d\n", outcome.Cycle)
	default:
		fmt.Fprintf(r.w, "outcome: horizon %d exceeded\n", r.c.spec.Horizon)
	}
	return outcome, nil
}

// RunSingle drives one machine through the schedule, writing the full
// human-readable report (header, per-event casualties, accounting table,
// outcome line) to w. The returned outcome mirrors the printed verdict so
// the CLI can map it to an exit status.
func RunSingle(spec Spec, w io.Writer) (deadlock.Outcome, error) {
	r, err := NewSingleRun(spec, w)
	if err != nil {
		return deadlock.Outcome{}, err
	}
	if err := r.Drive(nil); err != nil {
		return deadlock.Outcome{}, err
	}
	return r.Finish()
}
