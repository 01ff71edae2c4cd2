package campaign

// Single-schedule runs: one machine driven through a scheduled mid-run fault
// sequence, reporting each event's in-flight casualties and the final
// retransmission accounting. This is mdxfault's single mode, extracted so
// the job server produces the exact same bytes: both call RunSingle with an
// io.Writer (the CLI passes os.Stdout, the server a buffer), making the HTTP
// artifact byte-identical to the CLI stdout by construction.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"sr2201/internal/core"
	"sr2201/internal/deadlock"
	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
	"sr2201/internal/reconfig"
	"sr2201/internal/recovery"
	"sr2201/internal/routing"
	"sr2201/internal/stats"
)

// SingleSpec describes one single-schedule run.
type SingleSpec struct {
	Shape geom.Shape
	// Topology selects the machine's interconnect (see Spec.Topology).
	Topology string
	// Events is the fault schedule, in activation order.
	Events []inject.Event
	// Pattern chooses each wave's destinations.
	Pattern Pattern
	// Waves/Gap/PacketSize/Horizon as in Spec.
	Waves      int
	Gap        int64
	PacketSize int
	Horizon    int64
	// Inject tunes recovery (retransmission etc.).
	Inject inject.Options
	// Recovery enables the liveness layer (as in Spec.Recovery).
	Recovery recovery.Options
	// Preset faults are installed before any traffic.
	Preset []fault.Fault
	// Broadcasts schedules broadcast injections alongside the unicast
	// waves, in ascending cycle order.
	Broadcasts []Broadcast
	// SXB/DXB/DXBSeparate/NaiveBroadcast/PivotLastDim forward to
	// core.Config, selecting the crossbar design variant under test.
	SXB            geom.Coord
	DXB            geom.Coord
	DXBSeparate    bool
	NaiveBroadcast bool
	PivotLastDim   bool
	// VCs/Adaptive forward to core.Config: virtual channels per wire and
	// escape-VC adaptive routing.
	VCs      int
	Adaptive bool
	// Reconfig/ReconfigDrainBudget enable online reconfiguration (see
	// Spec.Reconfig); every attempt prints one event line plus its refusal
	// and union witnesses.
	Reconfig            string
	ReconfigDrainBudget int
	// Ctx, if non-nil, cancels the run between cycles; RunSingle then
	// returns ctx.Err() with the report truncated mid-stream.
	Ctx context.Context
	// OnCycle, if non-nil, is called every progressInterval cycles with the
	// engine's hot-path counters — the job server's progress feed.
	OnCycle func(cycle int64, ctr engine.Counters)
	// OnRecovery, if non-nil, is called for every recovery event, after the
	// report line is written (the job server's recovery feed).
	OnRecovery func(recovery.Event)
	// OnReconfig, if non-nil, is called for every reconfiguration event,
	// after its report block is written (the job server's reconfig feed).
	OnReconfig func(reconfig.Event)
}

// progressInterval is how often RunSingle samples OnCycle.
const progressInterval = 1024

// SingleRun is RunSingle as a resumable stepper: the same loop broken at
// cycle granularity, so a caller (the job server) can snapshot between
// Steps and, after a crash, resume with the report stream — including the
// already-printed casualty lines — re-rendered byte-identically.
type SingleRun struct {
	spec SingleSpec
	m    *core.Machine
	inj  *inject.Injector
	wd   *deadlock.Watchdog
	sup  *recovery.Supervisor
	mgr  *reconfig.Manager
	w    io.Writer

	offered, accepted, refused int
	bcasts, bcastsRefused      int
	bcastCopiesExpected        int
	reported                   int
	reportedRecov              int
	reportedReconfig           int
	wave                       int
	bNext                      int
	outcome                    deadlock.Outcome
	livelocked                 bool
	done                       bool
}

// NewSingleRun builds the run and writes the report preamble (header plus
// schedule lines) to w.
func NewSingleRun(spec SingleSpec, w io.Writer) (*SingleRun, error) {
	if spec.Horizon <= 0 {
		spec.Horizon = 50_000
	}
	if spec.Topology != "" && spec.Topology != core.TopologyMDX && len(spec.Broadcasts) > 0 {
		return nil, fmt.Errorf("campaign: topology %q has no hardware broadcast; remove the broadcast schedule", spec.Topology)
	}
	if len(spec.Broadcasts) > 0 {
		for _, b := range spec.Broadcasts {
			if b.Cycle < 0 {
				return nil, fmt.Errorf("campaign: negative broadcast cycle %d", b.Cycle)
			}
		}
		bs := append([]Broadcast(nil), spec.Broadcasts...)
		sort.SliceStable(bs, func(i, j int) bool { return bs[i].Cycle < bs[j].Cycle })
		spec.Broadcasts = bs
	}
	m, err := core.NewMachine(core.Config{
		Shape:          spec.Shape,
		Topology:       spec.Topology,
		SXB:            spec.SXB,
		DXB:            spec.DXB,
		DXBSeparate:    spec.DXBSeparate,
		NaiveBroadcast: spec.NaiveBroadcast,
		PivotLastDim:   spec.PivotLastDim,
		VCs:            spec.VCs,
		Adaptive:       spec.Adaptive,
		PacketSize:     spec.PacketSize,
		StallThreshold: spec.Inject.StallThreshold,
		Reconfig:       spec.Reconfig,
	})
	if err != nil {
		return nil, err
	}
	for _, f := range spec.Preset {
		if err := m.AddFault(f); err != nil {
			return nil, fmt.Errorf("campaign: preset fault: %w", err)
		}
	}
	inj, err := inject.New(m, spec.Events, spec.Inject)
	if err != nil {
		return nil, err
	}
	r := &SingleRun{spec: spec, m: m, inj: inj, w: w}
	if spec.Recovery.Enabled {
		r.sup = recovery.New(m, inj, spec.Recovery)
		r.sup.OnEvent(func(ev recovery.Event) {
			fmt.Fprintf(w, "%s\n", ev)
			r.reportedRecov++
			if spec.OnRecovery != nil {
				spec.OnRecovery(ev)
			}
		})
	}
	if spec.Reconfig != "" {
		mgr, err := reconfig.New(m, reconfig.Options{DrainBudget: spec.ReconfigDrainBudget})
		if err != nil {
			return nil, err
		}
		mgr.OnDrained(inj.LoseDrained)
		if r.sup != nil && mgr.CoversDeadlock() {
			r.sup.OnDeadlock(mgr.OnDeadlock)
		}
		r.mgr = mgr
	}
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
	if r.sup != nil {
		opt := r.sup.Options()
		fmt.Fprintf(w, "recovery: enabled (stall-threshold=%d max-recoveries=%d)\n",
			opt.StallThreshold, opt.MaxRecoveries)
	}
	if r.mgr != nil {
		fmt.Fprintf(w, "reconfig: enabled (mode=%s drain-budget=%d)\n",
			spec.Reconfig, r.mgr.Options().DrainBudget)
	}

	eng := m.Engine()
	if spec.OnCycle != nil {
		// Chain behind the injector's own PreCycle hook.
		prev := eng.PreCycle
		onCycle := spec.OnCycle
		eng.PreCycle = func(c int64) {
			if prev != nil {
				prev(c)
			}
			if c%progressInterval == 0 {
				onCycle(c, eng.Counters())
			}
		}
	}
	r.wd = deadlock.NewWatchdog(eng, spec.Inject.StallThreshold)
	return r, nil
}

// Machine exposes the run's machine (the replay tooling reads its engine).
func (r *SingleRun) Machine() *core.Machine { return r.m }

// Cycle returns the run's current simulation time.
func (r *SingleRun) Cycle() int64 { return r.m.Cycle() }

// Done reports whether the run has reached its verdict.
func (r *SingleRun) Done() bool { return r.done }

// Livelocked reports whether the recovery layer escalated to the
// ErrLivelock verdict (per-packet recovery cap exceeded).
func (r *SingleRun) Livelocked() bool { return r.livelocked }

// Recoveries returns the number of victims the recovery layer purged from
// confirmed wait cycles (0 when recovery is disabled).
func (r *SingleRun) Recoveries() int {
	if r.sup == nil {
		return 0
	}
	return r.sup.Stats().Recoveries
}

// ReconfigStats returns the online-reconfiguration accounting (the zero
// value when reconfiguration is disabled).
func (r *SingleRun) ReconfigStats() reconfig.Stats {
	if r.mgr == nil {
		return reconfig.Stats{}
	}
	return r.mgr.Stats()
}

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
// and, when a drain was forced, the cyclic union's. All deterministic (the
// prover's cycle search is id-ordered), so the block is replay-stable.
func (r *SingleRun) printReconfig(ev reconfig.Event) {
	fmt.Fprintf(r.w, "%s\n", ev)
	for _, ref := range ev.Refusals {
		fmt.Fprintf(r.w, "  refused %s: cycle [%s]\n", ref.Scheme, strings.Join(ref.Cycle, " -> "))
	}
	for _, msg := range ev.Errors {
		fmt.Fprintf(r.w, "  unbuildable candidate: %s\n", msg)
	}
	if ev.Outcome == reconfig.OutcomeDrain {
		fmt.Fprintf(r.w, "  union cycle [%s]\n", strings.Join(ev.Union.Cycle, " -> "))
	}
}

// Step advances one cycle (injecting any due wave first, reporting new
// casualties after) and returns true when the run is finished. Step on a
// finished run is a no-op returning true.
func (r *SingleRun) Step() bool {
	if r.done {
		return true
	}
	eng := r.m.Engine()
	if eng.Cycle() >= r.spec.Horizon {
		r.done = true
		return true
	}
	if r.wave < r.spec.Waves && eng.Cycle() == int64(r.wave)*r.spec.Gap {
		r.spec.Shape.Enumerate(func(src geom.Coord) bool {
			if !r.m.Alive(src) {
				return true
			}
			dst := r.spec.Pattern.Dest(r.spec.Shape, src)
			if dst == src {
				return true
			}
			r.offered++
			if _, err := r.m.Send(src, dst, r.spec.PacketSize); err != nil {
				if errors.Is(err, routing.ErrUnreachable) {
					r.refused++
				}
				return true
			}
			r.accepted++
			return true
		})
		r.wave++
	}
	for r.bNext < len(r.spec.Broadcasts) && r.spec.Broadcasts[r.bNext].Cycle <= eng.Cycle() {
		b := r.spec.Broadcasts[r.bNext]
		r.bNext++
		if _, copies, err := r.m.Broadcast(b.Src, b.Size); err != nil {
			r.bcastsRefused++
		} else {
			r.bcasts++
			r.bcastCopiesExpected += copies
		}
	}
	if r.wave >= r.spec.Waves && r.bNext >= len(r.spec.Broadcasts) &&
		eng.Quiescent() && !r.inj.Pending() {
		r.outcome.Drained = true
		r.done = true
		return true
	}
	r.m.Step()
	for _, c := range r.inj.Casualties()[r.reported:] {
		r.printCasualty(c)
		r.reported++
	}
	if r.mgr != nil {
		for _, ev := range r.mgr.Events()[r.reportedReconfig:] {
			r.printReconfig(ev)
			r.reportedReconfig++
			if r.spec.OnReconfig != nil {
				r.spec.OnReconfig(ev)
			}
		}
	}
	if r.sup != nil {
		// The liveness layer owns the stall verdict: it recovers what it
		// can and decides only when it cannot.
		if v := r.sup.Verdict(); v.Decided {
			r.outcome.Stalled = true
			r.outcome.Deadlocked = v.Deadlocked
			r.livelocked = v.Livelocked
			r.done = true
		}
	} else if r.wd.Stalled() {
		rep := deadlock.Analyze(eng)
		r.outcome.Stalled = true
		r.outcome.Deadlocked = rep.Deadlocked
		r.done = true
	}
	if eng.Cycle() >= r.spec.Horizon {
		r.done = true
	}
	return r.done
}

// Finish writes the accounting table and outcome line and returns the
// outcome. Call once, after Step reports done (calling it on an unfinished
// run reports on the traffic so far).
func (r *SingleRun) Finish() (deadlock.Outcome, error) {
	if err := r.inj.Err(); err != nil {
		return r.outcome, err
	}
	r.outcome.Cycle = r.m.Engine().Cycle()

	st := r.inj.Stats()
	delivered, bcopies := 0, 0
	for _, d := range r.m.Deliveries() {
		if d.Broadcast {
			bcopies++
		} else {
			delivered++
		}
	}
	t := stats.NewTable("dynamic-fault accounting",
		"offered", "accepted", "refused", "bcast", "delivered", "bcopies",
		"killed", "victims", "retx", "recovered", "lost-unreach", "lost-exhaust", "dup")
	t.AddRow(r.offered, r.accepted, r.refused, r.bcasts, delivered, bcopies,
		st.KilledInFlight+st.DropsEnRoute, st.Victims, st.Retransmits, st.Recovered,
		st.LostUnreachable, st.LostExhausted, st.Duplicates)
	fmt.Fprintln(r.w)
	fmt.Fprint(r.w, t.String())
	if r.sup != nil {
		s := r.sup.Stats()
		fmt.Fprintf(r.w, "recoveries: %d (stalls detected %d, unrecoverable %d)\n",
			s.Recoveries, s.StallsDetected, s.VictimsUnrecoverable)
	}
	if r.mgr != nil {
		if err := r.mgr.Err(); err != nil {
			return r.outcome, err
		}
		s := r.mgr.Stats()
		fmt.Fprintf(r.w, "reconfig: %d attempts, %d hot swaps, %d drains (%d packets), %d fallbacks, %d refusals\n",
			s.Attempts, s.HotSwaps, s.Drains, s.DrainedPackets, s.Fallbacks, s.Refusals)
	}
	switch {
	case r.livelocked:
		fmt.Fprintf(r.w, "outcome: LIVELOCK at cycle %d (per-packet recovery cap exceeded)\n", r.outcome.Cycle)
	case r.outcome.Deadlocked:
		fmt.Fprintf(r.w, "outcome: DEADLOCK at cycle %d\n", r.outcome.Cycle)
	case r.outcome.Stalled:
		fmt.Fprintf(r.w, "outcome: stalled at cycle %d (no cyclic wait)\n", r.outcome.Cycle)
	case r.outcome.Drained:
		fmt.Fprintf(r.w, "outcome: drained at cycle %d\n", r.outcome.Cycle)
	default:
		fmt.Fprintf(r.w, "outcome: horizon %d exceeded\n", r.spec.Horizon)
	}
	return r.outcome, nil
}

// RunSingle drives one machine through the schedule, writing the full
// human-readable report (header, per-event casualties, accounting table,
// outcome line) to w. The returned outcome mirrors the printed verdict so
// the CLI can map it to an exit status.
func RunSingle(spec SingleSpec, w io.Writer) (deadlock.Outcome, error) {
	r, err := NewSingleRun(spec, w)
	if err != nil {
		return deadlock.Outcome{}, err
	}
	for !r.Step() {
		if spec.Ctx != nil && r.Cycle()%64 == 0 {
			if err := spec.Ctx.Err(); err != nil {
				return r.outcome, err
			}
		}
	}
	return r.Finish()
}

// parsePairCoord parses one "2,1"-style endpoint of a pair pattern,
// returning the coordinate and its dimensionality.
func parsePairCoord(s string) (geom.Coord, int, error) {
	parts := strings.Split(strings.TrimSpace(s), ",")
	if len(parts) < 1 || len(parts) > geom.MaxDims {
		return geom.Coord{}, 0, fmt.Errorf("coordinate %q needs 1..%d components", s, geom.MaxDims)
	}
	var c geom.Coord
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return geom.Coord{}, 0, fmt.Errorf("bad coordinate component %q", p)
		}
		c[i] = v
	}
	return c, len(parts), nil
}

// ParsePattern parses one traffic-pattern name: shift+K | reverse |
// pair:SRC>DST. The CLI and the job server share it so they accept
// identical spellings.
func ParsePattern(name string) (Pattern, error) {
	name = strings.TrimSpace(name)
	switch {
	case name == "reverse":
		return Reverse(), nil
	case strings.HasPrefix(name, "shift+"):
		k, err := strconv.Atoi(strings.TrimPrefix(name, "shift+"))
		if err != nil || k < 1 {
			return Pattern{}, fmt.Errorf("campaign: bad shift pattern %q", name)
		}
		return Shift(k), nil
	case strings.HasPrefix(name, "pair:"):
		rest := strings.TrimPrefix(name, "pair:")
		halves := strings.Split(rest, ">")
		if len(halves) != 2 {
			return Pattern{}, fmt.Errorf("campaign: bad pair pattern %q (want pair:SRC>DST)", name)
		}
		src, sd, err := parsePairCoord(halves[0])
		if err != nil {
			return Pattern{}, fmt.Errorf("campaign: bad pair pattern %q: %v", name, err)
		}
		dst, dd, err := parsePairCoord(halves[1])
		if err != nil {
			return Pattern{}, fmt.Errorf("campaign: bad pair pattern %q: %v", name, err)
		}
		if sd != dd {
			return Pattern{}, fmt.Errorf("campaign: pair pattern %q mixes %d- and %d-dimensional endpoints", name, sd, dd)
		}
		if src == dst {
			return Pattern{}, fmt.Errorf("campaign: pair pattern %q sends to itself", name)
		}
		return Pair(src, dst, sd), nil
	default:
		return Pattern{}, fmt.Errorf("campaign: unknown pattern %q (shift+K | reverse | pair:SRC>DST)", name)
	}
}

// pairComplete reports whether a "pair:..." spec has both endpoints: a '>'
// with as many destination components as source components. ParsePatterns
// uses it to re-join the comma-separated tokens of one pair spec.
func pairComplete(s string) bool {
	rest := strings.TrimPrefix(strings.TrimSpace(s), "pair:")
	gt := strings.IndexByte(rest, '>')
	if gt < 0 {
		return false
	}
	return strings.Count(rest[gt+1:], ",") >= strings.Count(rest[:gt], ",")
}

// ParsePatterns parses a comma-separated pattern list. Pair specs contain
// commas of their own ("pair:0,1>2,2"); their tokens are re-joined until the
// destination is as long as the source.
func ParsePatterns(s string) ([]Pattern, error) {
	tokens := strings.Split(s, ",")
	var out []Pattern
	for i := 0; i < len(tokens); i++ {
		name := tokens[i]
		if strings.HasPrefix(strings.TrimSpace(name), "pair:") {
			for !pairComplete(name) && i+1 < len(tokens) {
				i++
				name += "," + tokens[i]
			}
		}
		p, err := ParsePattern(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("campaign: empty pattern list")
	}
	return out, nil
}

// ParseEpochs parses a comma-separated list of non-negative activation
// cycles.
func ParseEpochs(s string) ([]int64, error) {
	var out []int64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("campaign: bad epoch %q", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("campaign: empty epoch list")
	}
	return out, nil
}
