package experiments

// H-series: topology experiments. The topo layer (internal/topo) makes the
// campaign machinery generic over the interconnect, so the same exhaustive
// single-fault pricing the F-series applies to the MD crossbar runs here
// against the direct-link lattices: HyperX with fault-tolerant dimension
// order routing (arXiv 2404.04315) and the VC-free deadlock-free full mesh
// (arXiv 2510.14730). Fault placements now include every in-line link, and
// the full-mesh ordering rule makes some single link faults genuinely
// unreachable (destination 1 owns the bottom of the detour order) — the
// campaign's static prediction must price those exactly.

import (
	"fmt"

	"sr2201/internal/campaign"
	"sr2201/internal/inject"
	"sr2201/internal/stats"
)

func init() {
	register(Experiment{ID: "H1", Title: "HyperX exhaustive single-fault availability map", Paper: "arXiv 2404.04315", run: runH1})
	register(Experiment{ID: "H2", Title: "Full-mesh (VC-free) exhaustive single-fault availability map", Paper: "arXiv 2510.14730", run: runH2})
	register(Experiment{ID: "H3", Title: "Cross-topology fault face-off under one workload", Paper: "topo layer", run: runH3})
}

// runTopoCampaign runs the exhaustive single-fault campaign — every router
// and every in-line link × epoch × pattern — on one direct-link topology and
// applies the F2 shape criterion: no deadlocks or stalls, every cell drains,
// every refusal matches the static post-fault prediction, and with
// retransmission on the only final losses are documented unreachable
// destinations.
func runTopoCampaign(r *Report, opt Options, topology string, t campaign.RunText) error {
	t.Topology = topology
	res, err := runCampaign(opt, t)
	if err != nil {
		return err
	}
	r.Tables = append(r.Tables, res.Table())
	a := auditMap(res)
	r.Pass = a.clean()
	r.Notef("%d cells (%d placements incl. links): deadlocks %d, stalls %d, undrained %d, refusals off-prediction %d, undocumented losses %d",
		len(res.Cells), len(campaign.PlacementsFor(topology, res.Shape)),
		a.deadlocks, a.stalls, a.undrained, a.unpredicted, a.undocumented)
	r.Notef("refusals across the map: %d — every one a statically predicted unreachable destination", a.refused)
	return nil
}

// runH1 prices HyperX availability under the exhaustive single-fault map.
// Fault-tolerant DOR detours around any single in-dimension link fault, so
// only router faults (dead destinations) may refuse traffic.
func runH1(r *Report, opt Options) error {
	return runTopoCampaign(r, opt, "hyperx", faultMap(opt, "6x6", "3x3", 7, 5))
}

// runH2 prices the VC-free full mesh the same way. Unlike HyperX, the
// detour-order rule leaves destination 1 with no admissible intermediate, so
// a single a-1 link fault is a predicted refusal, not a detour — the
// campaign's as-predicted accounting prices that degradation exactly.
func runH2(r *Report, opt Options) error {
	return runTopoCampaign(r, opt, "fullmesh", faultMap(opt, "12", "6", 5, 3))
}

// h3Rows are one wave workload with a router dying at cycle 8 and
// retransmission on, on each topology at the experiment's scale.
func h3Rows(opt Options) []row {
	shape2d, mesh, victim2d, victimMesh := "6x6", "36", "3,3", "18"
	if opt.Quick {
		shape2d, mesh, victim2d, victimMesh = "4x4", "16", "2,1", "9"
	}
	run := func(topology, shape, victim string) row {
		return row{[]any{topology, shape}, campaign.RunText{
			Shape:    shape,
			Topology: topology,
			Fails:    []string{"rtc:" + victim + "@8"},
			Patterns: []string{"shift+7"},
			Waves:    4,
			Gap:      24,
			Inject:   inject.Options{Retransmit: true, RetryAfter: 32, StallThreshold: 256},
		}}
	}
	return []row{run("mdx", shape2d, victim2d), run("hyperx", shape2d, victim2d), run("fullmesh", mesh, victimMesh)}
}

// runH3 runs one identical workload across all three topologies and
// compares what the fault costs each: availability, losses, and delivered
// latency. Shape criterion: every topology drains without deadlock or
// stall, refusals match prediction, and retransmission closes the loss gap
// exactly (only the statically unreachable destinations are lost).
func runH3(r *Report, opt Options) error {
	rows := h3Rows(opt)
	cells, err := sweepRows(opt, rows, nil)
	if err != nil {
		return err
	}

	tbl := stats.NewTable(
		fmt.Sprintf("H3 one router dies at cycle 8 (%s / %s), same wave workload", rows[0].run.Shape, rows[2].run.Shape),
		"topology", "shape", "accepted", "delivered", "refused", "killed", "retx",
		"recovered", "lost-unreach", "avail", "mean lat", "max lat")
	pass := true
	for i, res := range cells {
		var sumLat, maxLat int64
		for _, d := range res.Deliveries {
			sumLat += d.Latency
			if d.Latency > maxLat {
				maxLat = d.Latency
			}
		}
		meanLat := 0.0
		if len(res.Deliveries) > 0 {
			meanLat = float64(sumLat) / float64(len(res.Deliveries))
		}
		st := res.Stats
		tbl.AddRow(append(rows[i].label, res.Accepted, res.Delivered, res.Refused,
			st.KilledInFlight+st.DropsEnRoute, st.Retransmits, st.Recovered,
			st.LostUnreachable, res.Availability(), meanLat, maxLat)...)
		pass = pass && res.Drained && !res.Deadlocked && !res.Stalled &&
			res.UnreachableAsPredicted && st.Duplicates == 0 &&
			res.Accepted-res.Delivered-st.LostUnreachable == 0
	}
	r.Tables = append(r.Tables, tbl)
	r.Pass = pass
	r.Notef("every topology absorbs the same router death: direct-link lattices lose only traffic addressed to the dead PE, as does the crossbar's detour facility")
	return nil
}
