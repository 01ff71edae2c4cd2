package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sr2201/internal/campaign"
	"sr2201/internal/cdg"
	"sr2201/internal/core"
	"sr2201/internal/inject"
	"sr2201/internal/jobs"
)

// ladder runs the same generated specs at each rung below HTTP, so that an
// op's latency decomposes: a bare machine, one campaign cell, one whole run
// called directly (with and without online reconfiguration), the same run
// through an in-memory jobs.Manager, and through one with a state
// directory. Each step up is the cost of the layer it adds.
func (w serveWorkload) ladder(o options, tr *tracer, rep *report) error {
	tr.on, tr.op = true, -1
	var campaigns, faults []jobSpec
	p := newPlanner(w, o.seed+2, 0)
	for i := 0; i < w.ladderSpecs; i++ {
		campaigns = append(campaigns, p.fresh(classCampaign))
		faults = append(faults, p.fresh(classFault))
	}

	for i := 0; i < 50; i++ {
		tr.begin(spNewMachine)
		_, err := core.NewMachine(core.Config{Shape: w.campaignShape})
		tr.end()
		if err != nil {
			return err
		}
	}
	rep.set("core.new_machine_ms", tr.percentile(spNewMachine, 50)/1e6)

	for _, s := range campaigns {
		cfg, err := s.campaignConfig()
		if err != nil {
			return err
		}
		for _, f := range campaign.Placements(s.shape) {
			cell := campaign.Spec{
				Shape: s.shape, Events: []inject.Event{{Cycle: s.epoch, Fault: f}}, Pattern: cfg.Patterns[0],
				Waves: cfg.Waves, Gap: cfg.Gap, Horizon: cfg.Horizon,
			}
			tr.begin(spRunCell)
			_, err := campaign.RunCell(cell)
			tr.end()
			if err != nil {
				return fmt.Errorf("ladder: cell %v of %s: %w", f, s.body(), err)
			}
		}
	}
	rep.set("campaign.run_cell_ms_p50", tr.percentile(spRunCell, 50)/1e6)

	for _, s := range faults {
		for _, mode := range []struct {
			reconfig string
			span     int
		}{{"fault", spRunSingleReconfig}, {"", spRunSingleRebuild}} {
			spec, err := s.singleSpec(mode.reconfig)
			if err != nil {
				return err
			}
			tr.begin(mode.span)
			_, err = campaign.RunSingle(spec, io.Discard)
			tr.end()
			if err != nil {
				return fmt.Errorf("ladder: single run of %s (reconfig %q): %w", s.body(), mode.reconfig, err)
			}
		}
	}
	rep.set("campaign.run_single_reconfig_ms_p50", tr.percentile(spRunSingleReconfig, 50)/1e6)
	rep.set("campaign.run_single_rebuild_ms_p50", tr.percentile(spRunSingleRebuild, 50)/1e6)

	mem := jobs.NewManager(jobs.Config{Workers: 1, Parallel: 1})
	err := execAll(mem, tr, campaigns, spMemExecCampaign, faults, spMemExecFault)
	mem.Drain()
	if err != nil {
		return err
	}
	dir := filepath.Join(o.outDir, fmt.Sprintf("state-%d-ladder", os.Getpid()))
	defer os.RemoveAll(dir)
	disk, err := jobs.OpenManager(jobs.Config{Workers: 1, Parallel: 1, StateDir: dir})
	if err != nil {
		return err
	}
	err = execAll(disk, tr, campaigns, spDiskExecCampaign, faults, spDiskExecFault)
	disk.Drain()
	if err != nil {
		return err
	}
	rep.set("jobs.mem_exec_ms_p50.campaign", tr.percentile(spMemExecCampaign, 50)/1e6)
	rep.set("jobs.mem_exec_ms_p50.fault", tr.percentile(spMemExecFault, 50)/1e6)
	rep.set("jobs.disk_exec_ms_p50.campaign", tr.percentile(spDiskExecCampaign, 50)/1e6)
	rep.set("jobs.disk_exec_ms_p50.fault", tr.percentile(spDiskExecFault, 50)/1e6)

	// The reconfiguration manager certifies each swap on the dependence
	// graph; this is the whole-graph analysis of the fault class's machine.
	m, err := core.NewMachine(core.Config{Shape: w.faultShape})
	if err != nil {
		return err
	}
	tr.begin(spCDG)
	res, err := cdg.Analyze(m.Policy(), w.faultShape, false)
	tr.end()
	if err != nil {
		return err
	}
	if !res.Acyclic {
		rep.problem("cdg.Analyze found a dependence cycle on %s: %v", w.faultShape, res.Cycle)
	}
	rep.set("cdg.analyze_ms", tr.percentile(spCDG, 50)/1e6)
	return nil
}

// execAll submits each spec to the manager and waits for its terminal
// event, one at a time, recording one span per execution.
func execAll(m *jobs.Manager, tr *tracer, campaigns []jobSpec, campaignSpan int, faults []jobSpec, faultSpan int) error {
	run := func(s jobSpec, span int) error {
		spec, err := jobs.DecodeSpec(s.body())
		if err != nil {
			return err
		}
		tr.begin(span)
		defer tr.end()
		id, _, err := m.Submit(spec)
		if err != nil {
			return err
		}
		var from int64
		for {
			evs, terminal, notify, err := m.Events(id, from)
			if err != nil {
				return err
			}
			from += int64(len(evs))
			if terminal {
				break
			}
			if len(evs) == 0 {
				<-notify
			}
		}
		if v, err := m.Lookup(id); err != nil || v.Status != jobs.StatusDone {
			return fmt.Errorf("ladder: %s ended %q (%v)", s.body(), v.Status, err)
		}
		return nil
	}
	for _, s := range campaigns {
		if err := run(s, campaignSpan); err != nil {
			return err
		}
	}
	for _, s := range faults {
		if err := run(s, faultSpan); err != nil {
			return err
		}
	}
	return nil
}
