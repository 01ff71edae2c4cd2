package jobs

import (
	"bytes"
	"context"
	"fmt"

	"sr2201/internal/campaign"
	"sr2201/internal/engine"
	"sr2201/internal/experiments"
	"sr2201/internal/reconfig"
	"sr2201/internal/recovery"
	"sr2201/internal/sweep"
)

// progressFn receives the work increments reported from inside a run.
// Calls arrive from worker goroutines; the manager serializes them into the
// job's ordered event stream.
type progressFn func(d Progress)

// reconfigDelta maps one reconfiguration event onto its progress increment;
// an attempt that left the tables unchanged counts as neither a swap nor a
// fallback.
func reconfigDelta(ev reconfig.Event) Progress {
	switch ev.Outcome {
	case reconfig.OutcomeHotSwap:
		return Progress{Reconfigured: 1}
	case reconfig.OutcomeFallback:
		return Progress{ReconfigFellBack: 1}
	}
	return Progress{}
}

// execState is one execution's slice of the manager's state store: where
// its park record and completed cells live. nil disables persistence (the
// stateless configuration). killed, when set, reports simulated abrupt
// process death (Manager.Kill): a dead owner writes nothing more — no park
// record — exactly like a real SIGKILL.
type execState struct {
	store  *stateStore
	hash   string
	killed func() bool
}

func (st *execState) dead() bool { return st.killed != nil && st.killed() }

// runSpec executes one normalized spec and returns its report artifact —
// the exact bytes the equivalent CLI run writes to stdout. parallel is the
// sweep width to request; budget (shared across all running jobs) is what
// actually bounds concurrency. A non-nil error may still carry a complete
// artifact (e.g. a campaign that deadlocked: the table is the evidence).
// With st non-nil, a campaign persists its completed cells and skips them on
// the next attempt, and a fault run parks its cycle and state hash and, on
// the next attempt, re-executes to that cycle and checks the hash there; the
// artifact is byte-identical either way. Experiment runs are cells all the
// way down and restart from scratch (each cell is small; only whole-run
// artifacts cache).
func runSpec(ctx context.Context, spec Spec, budget *sweep.Limiter, parallel int, progress progressFn, st *execState) ([]byte, error) {
	if st != nil {
		st.store.sweepRetired(st.hash)
	}
	switch spec.Kind {
	case KindExperiments:
		return runExperiments(ctx, spec.Experiments, budget, parallel, progress)
	case KindFault:
		return runFault(ctx, spec.Fault, progress, st)
	case KindCampaign:
		return runCampaign(ctx, spec.Campaign, budget, parallel, progress, st)
	default:
		return nil, fmt.Errorf("jobs: unnormalized spec kind %q", spec.Kind)
	}
}

// runExperiments mirrors mdxbench: run the resolved set, render each report
// in id-list order. Experiments execute sequentially within the job — the
// worker pool's concurrency lives in each experiment's cell sweep, which
// draws from the shared budget — so the artifact is the concatenation
// mdxbench prints, byte for byte.
func runExperiments(ctx context.Context, e *ExperimentsSpec, budget *sweep.Limiter, parallel int, progress progressFn) ([]byte, error) {
	list, err := experiments.Resolve(e.IDs)
	if err != nil {
		return nil, err
	}
	opt := experiments.Options{
		Quick:    e.Quick,
		Parallel: parallel,
		Ctx:      ctx,
		Budget:   budget,
		OnCell:   func(cycles int64) { progress(Progress{Cells: 1, Cycles: cycles}) },
	}
	var buf bytes.Buffer
	failed := 0
	for _, exp := range list {
		if err := ctx.Err(); err != nil {
			return buf.Bytes(), err
		}
		r, err := exp.Run(opt)
		if err != nil {
			return buf.Bytes(), fmt.Errorf("experiment %s: %w", exp.ID, err)
		}
		if !r.Pass {
			failed++
		}
		buf.WriteString(experiments.RenderReport(r))
	}
	if failed > 0 {
		return buf.Bytes(), fmt.Errorf("%d experiment(s) failed their shape criterion", failed)
	}
	return buf.Bytes(), nil
}

// hooks is the progress feed both run kinds hand to the campaign layer.
func hooks(ctx context.Context, progress progressFn) campaign.Hooks {
	return campaign.Hooks{
		Ctx:        ctx,
		OnRecovery: func(recovery.Event) { progress(Progress{Recoveries: 1}) },
		OnReconfig: func(ev reconfig.Event) { progress(reconfigDelta(ev)) },
	}
}

// runFault mirrors mdxfault single mode via the shared campaign stepper.
// With st non-nil the run parks its Mark (cycle and state hash) as it goes
// and when the context cancels. The next attempt re-executes from cycle 0 —
// the report and the progress feed simply run again — and checks the state
// at the parked cycle: a mismatch fails the job with ErrDiverged, naming the
// execution, the cycle and both hashes.
func runFault(ctx context.Context, f *FaultSpec, progress progressFn, st *execState) ([]byte, error) {
	spec, err := f.text().Spec()
	if err != nil {
		return nil, err
	}
	var lastCycle int64
	spec.Hooks = hooks(ctx, progress)
	spec.OnCycle = func(c int64, _ engine.Counters) {
		progress(Progress{Cycles: c - lastCycle})
		lastCycle = c
	}
	var buf bytes.Buffer
	r, err := campaign.NewSingleRun(spec, &buf)
	if err != nil {
		return nil, err
	}
	var park func(campaign.Mark)
	if st != nil {
		if mk, ok := st.store.loadPark(st.hash); ok {
			if err := r.Seek(mk); err != nil {
				return buf.Bytes(), fmt.Errorf("execution %s: %w", st.hash, err)
			}
		}
		// A failed park write costs the resume its check, not the run.
		park = func(mk campaign.Mark) {
			if !st.dead() {
				_ = st.store.savePark(st.hash, mk)
			}
		}
	}
	if err := r.Drive(park); err != nil {
		return buf.Bytes(), err
	}
	outcome, err := r.Finish()
	if st != nil && !st.dead() {
		st.store.removePark(st.hash)
	}
	if err != nil {
		return buf.Bytes(), err
	}
	// Settle the totals: OnCycle fires every progressInterval cycles, so a
	// short run (or the tail of a long one) is reported here.
	progress(Progress{Cells: 1, Cycles: outcome.Cycle - lastCycle})
	if res, _ := r.Cell().Tally(); res.Livelocked {
		return buf.Bytes(), fmt.Errorf("run did not drain: %w at cycle %d (%d recoveries)",
			recovery.ErrLivelock, outcome.Cycle, res.Recoveries)
	}
	if !outcome.Drained {
		return buf.Bytes(), fmt.Errorf("run did not drain (deadlocked=%v stalled=%v cycle=%d)",
			outcome.Deadlocked, outcome.Stalled, outcome.Cycle)
	}
	return buf.Bytes(), nil
}

// runCampaign mirrors mdxfault -campaign. With st non-nil the campaign runs
// against a per-execution cell store: completed cells are skipped on resume
// and an interrupted cell re-executes from cycle 0.
func runCampaign(ctx context.Context, c *CampaignSpec, budget *sweep.Limiter, parallel int, progress progressFn, st *execState) ([]byte, error) {
	cfg, err := c.text().Config()
	if err != nil {
		return nil, err
	}
	cfg.Hooks = hooks(ctx, progress)
	cfg.Parallel = parallel
	cfg.Budget = budget
	cfg.OnCell = func(cycles int64) { progress(Progress{Cells: 1, Cycles: cycles}) }
	if st != nil {
		store, err := campaign.OpenStore(st.store.cellsDir(st.hash))
		if err != nil {
			return nil, err
		}
		cfg.Store = store
	}
	res, err := campaign.Run(cfg)
	if err != nil {
		return nil, err
	}
	artifact := []byte(res.String())
	if res.Deadlocks() > 0 || res.Stalls() > 0 || res.Livelocked() > 0 {
		return artifact, fmt.Errorf("campaign: %d deadlock(s), %d stall(s), %d livelocked",
			res.Deadlocks(), res.Stalls(), res.Livelocked())
	}
	return artifact, nil
}

// text is the fault job as the run-spec resolver reads it.
func (f *FaultSpec) text() campaign.RunText {
	return campaign.RunText{
		Shape:      f.Shape,
		Topology:   f.Topology,
		Fails:      f.Fails,
		Presets:    f.Presets,
		Broadcasts: f.Broadcasts,
		Patterns:   []string{f.Pattern},
		Waves:      f.Waves,
		Gap:        f.Gap,
		PacketSize: f.PacketSize,
		Horizon:    f.Horizon,
		Inject:     f.Inject,
		Recovery:   f.Recovery,
		Variant:    f.Variant,
		Reconfig:   f.Reconfig,
	}
}

// text is the campaign job as the run-spec resolver reads it.
func (c *CampaignSpec) text() campaign.RunText {
	return campaign.RunText{
		Shape:      c.Shape,
		Topology:   c.Topology,
		Presets:    c.Presets,
		Broadcasts: c.Broadcasts,
		Patterns:   c.Patterns,
		Epochs:     c.Epochs,
		Waves:      c.Waves,
		Gap:        c.Gap,
		PacketSize: c.PacketSize,
		Horizon:    c.Horizon,
		Inject:     c.Inject,
		Recovery:   c.Recovery,
		Variant:    c.Variant,
		Reconfig:   c.Reconfig,
	}
}
