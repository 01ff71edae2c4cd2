package jobs

import (
	"bytes"
	"context"
	"fmt"

	"sr2201/internal/campaign"
	"sr2201/internal/engine"
	"sr2201/internal/experiments"
	"sr2201/internal/inject"
	"sr2201/internal/reconfig"
	"sr2201/internal/recovery"
	"sr2201/internal/sweep"
)

// progressDelta is one completed work increment reported from inside a run:
// sweep cells finished, simulated cycles retired, deadlock recoveries taken
// by the liveness layer, and online-reconfiguration outcomes (committed
// swaps, packets purged by transition drains, attempts that fell back to
// rebuild-in-place).
type progressDelta struct {
	cells, cycles, recoveries                     int64
	reconfigs, reconfigDrained, reconfigFallbacks int64
}

// progressFn receives progress deltas. Calls arrive from worker goroutines;
// the manager serializes them into the job's ordered event stream.
type progressFn func(d progressDelta)

// reconfigDelta maps one reconfiguration event onto its progress increment.
func reconfigDelta(ev reconfig.Event) progressDelta {
	d := progressDelta{reconfigDrained: int64(ev.Drained)}
	if ev.Outcome == reconfig.OutcomeFallback {
		d.reconfigFallbacks = 1
	} else {
		d.reconfigs = 1
	}
	return d
}

// execState is one execution's slice of the manager's state store: where
// its checkpoints live and how often to write them. nil disables
// checkpointing (the stateless configuration). killed, when set, reports
// simulated abrupt process death (Manager.Kill): a dead owner writes
// nothing more — no park, no checkpoint — exactly like a real SIGKILL.
type execState struct {
	store  *stateStore
	hash   string
	every  int64
	killed func() bool
}

func (st *execState) dead() bool { return st.killed != nil && st.killed() }

// runSpec executes one normalized spec and returns its report artifact —
// the exact bytes the equivalent CLI run writes to stdout. parallel is the
// sweep width to request; budget (shared across all running jobs) is what
// actually bounds concurrency. A non-nil error may still carry a complete
// artifact (e.g. a campaign that deadlocked: the table is the evidence).
// With st non-nil, campaign and fault runs checkpoint as they go and resume
// from whatever an earlier interrupted run left behind; the artifact is
// byte-identical either way. Experiment runs are cells all the way down and
// restart from scratch (each cell is small; only whole-run artifacts cache).
func runSpec(ctx context.Context, spec Spec, budget *sweep.Limiter, parallel int, progress progressFn, st *execState) ([]byte, error) {
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
		OnCell:   func(cycles int64) { progress(progressDelta{cells: 1, cycles: cycles}) },
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
		OnRecovery: func(recovery.Event) { progress(progressDelta{recoveries: 1}) },
		OnReconfig: func(ev reconfig.Event) { progress(reconfigDelta(ev)) },
	}
}

// runFault mirrors mdxfault single mode via the shared campaign stepper.
// With st non-nil the run checkpoints periodically, parks a snapshot when the
// context cancels, and on the next attempt restores mid-run — the restored
// writer re-renders the already-reported prefix, so the artifact bytes are
// identical to an uninterrupted run.
func runFault(ctx context.Context, f *FaultSpec, progress progressFn, st *execState) ([]byte, error) {
	spec, err := f.text().Spec()
	if err != nil {
		return nil, err
	}
	var lastCycle int64
	spec.Hooks = hooks(ctx, progress)
	spec.OnCycle = func(c int64, _ engine.Counters) {
		progress(progressDelta{cycles: c - lastCycle})
		lastCycle = c
	}
	var buf bytes.Buffer
	r, err := campaign.NewSingleRun(spec, &buf)
	if err != nil {
		return nil, err
	}
	var every int64
	var save func([]byte) error
	if st != nil {
		if snap, ok := st.store.loadSingleSnap(st.hash); ok {
			if err := r.Restore(snap); err == nil {
				lastCycle = r.Cycle()
				// Recoveries and reconfigurations taken before the
				// interruption were restored with the supervisor and manager
				// state, not replayed through the On* hooks. (Tally's error
				// resurfaces from Finish.)
				res, _ := r.Cell().Tally()
				progress(progressDelta{
					recoveries:        int64(res.Recoveries),
					reconfigs:         int64(res.Reconfigured),
					reconfigDrained:   int64(res.ReconfigDrained),
					reconfigFallbacks: int64(res.ReconfigFellBack),
				})
			} else {
				// A stale or corrupt snapshot (e.g. from an older binary) is
				// not fatal — restart from cycle zero with a fresh writer.
				buf.Reset()
				if r, err = campaign.NewSingleRun(spec, &buf); err != nil {
					return nil, err
				}
			}
		}
		every = st.every
		// A failed checkpoint write costs resume granularity, not the run.
		save = func(snap []byte) error {
			if !st.dead() {
				st.store.saveSingleSnap(st.hash, snap)
			}
			return nil
		}
	}
	if err := r.Drive(every, save); err != nil {
		return buf.Bytes(), err
	}
	outcome, err := r.Finish()
	if st != nil && !st.dead() {
		st.store.removeSingleSnap(st.hash)
	}
	if err != nil {
		return buf.Bytes(), err
	}
	// Settle the totals: OnCycle fires every progressInterval cycles, so a
	// short run (or the tail of a long one) is reported here.
	progress(progressDelta{cells: 1, cycles: outcome.Cycle - lastCycle})
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
// and in-progress cells restart from their latest snapshot.
func runCampaign(ctx context.Context, c *CampaignSpec, budget *sweep.Limiter, parallel int, progress progressFn, st *execState) ([]byte, error) {
	cfg, err := c.text().Config()
	if err != nil {
		return nil, err
	}
	cfg.Hooks = hooks(ctx, progress)
	cfg.Parallel = parallel
	cfg.Budget = budget
	cfg.OnCell = func(cycles int64) { progress(progressDelta{cells: 1, cycles: cycles}) }
	if st != nil {
		store, err := campaign.OpenStore(st.store.cellsDir(st.hash))
		if err != nil {
			return nil, err
		}
		cfg.Store = store
		cfg.CheckpointEvery = st.every
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

// options maps the wire spec onto inject.Options.
func (in InjectSpec) options() inject.Options {
	return inject.Options{
		Retransmit:     in.Retransmit,
		RetryAfter:     in.RetryAfter,
		Backoff:        in.Backoff,
		MaxRetries:     in.MaxRetries,
		StallThreshold: in.Stall,
	}
}

// text is the fault job as the run-spec resolver reads it. The nested wire
// structs convert field for field, so a knob added to one side without the
// other stops compiling.
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
		Inject:     f.Inject.options(),
		Recovery:   recovery.Options(f.Recovery),
		Variant:    campaign.VariantText(f.Variant),
		Reconfig:   campaign.ReconfigText(f.Reconfig),
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
		Inject:     c.Inject.options(),
		Recovery:   recovery.Options(c.Recovery),
		Variant:    campaign.VariantText(c.Variant),
		Reconfig:   campaign.ReconfigText(c.Reconfig),
	}
}
