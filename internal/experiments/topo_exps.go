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
	"sr2201/internal/fault"
	"sr2201/internal/geom"
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
func runTopoCampaign(r *Report, topology string, cfg campaign.Config) error {
	cfg.Topology = topology
	res, err := campaign.Run(cfg)
	if err != nil {
		return err
	}
	r.Tables = append(r.Tables, res.Table())
	a := auditMap(res)
	r.Pass = a.clean()
	r.Notef("%d cells (%d placements incl. links): deadlocks %d, stalls %d, undrained %d, refusals off-prediction %d, undocumented losses %d",
		len(res.Cells), len(campaign.PlacementsFor(topology, cfg.Shape)),
		a.deadlocks, a.stalls, a.undrained, a.unpredicted, a.undocumented)
	r.Notef("refusals across the map: %d — every one a statically predicted unreachable destination", a.refused)
	return nil
}

// runH1 prices HyperX availability under the exhaustive single-fault map.
// Fault-tolerant DOR detours around any single in-dimension link fault, so
// only router faults (dead destinations) may refuse traffic.
func runH1(r *Report, opt Options) error {
	return runTopoCampaign(r, "hyperx", faultMapConfig(opt, geom.MustShape(6, 6), geom.MustShape(3, 3), 7, 5))
}

// runH2 prices the VC-free full mesh the same way. Unlike HyperX, the
// detour-order rule leaves destination 1 with no admissible intermediate, so
// a single a-1 link fault is a predicted refusal, not a detour — the
// campaign's as-predicted accounting prices that degradation exactly.
func runH2(r *Report, opt Options) error {
	return runTopoCampaign(r, "fullmesh", faultMapConfig(opt, geom.MustShape(12), geom.MustShape(6), 5, 3))
}

// faceOffCase is one topology's run in the H3 comparison.
type faceOffCase struct {
	topology string
	shape    geom.Shape
	victim   geom.Coord
}

// runH3 runs one identical workload — a wave pattern with a router dying at
// cycle 8 and retransmission on — across all three topologies and compares
// what the fault costs each: availability, losses, and delivered latency.
// Shape criterion: every topology drains without deadlock or stall, refusals
// match prediction, and retransmission closes the loss gap exactly (only the
// statically unreachable destinations are lost).
func runH3(r *Report, opt Options) error {
	shape2d, mesh := geom.MustShape(6, 6), geom.MustShape(36)
	victim2d, victimMesh := geom.Coord{3, 3}, geom.Coord{18}
	waves := 4
	if opt.Quick {
		shape2d, mesh = geom.MustShape(4, 4), geom.MustShape(16)
		victim2d, victimMesh = geom.Coord{2, 1}, geom.Coord{9}
	}
	cases := []faceOffCase{
		{"mdx", shape2d, victim2d},
		{"hyperx", shape2d, victim2d},
		{"fullmesh", mesh, victimMesh},
	}

	tbl := stats.NewTable(
		fmt.Sprintf("H3 one router dies at cycle 8 (%s / %s), same wave workload", shape2d, mesh),
		"topology", "shape", "accepted", "delivered", "refused", "killed", "retx",
		"recovered", "lost-unreach", "avail", "mean lat", "max lat")
	pass := true
	for _, c := range cases {
		res, err := campaign.RunCell(campaign.Spec{
			Shape:    c.shape,
			Topology: c.topology,
			Events:   []inject.Event{{Cycle: 8, Fault: fault.RouterFault(c.victim)}},
			Pattern:  campaign.Shift(7),
			Waves:    waves,
			Gap:      24,
			Inject: inject.Options{
				Retransmit:     true,
				RetryAfter:     32,
				StallThreshold: 256,
			},
			KeepDeliveries: true,
		})
		if err != nil {
			return err
		}
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
		tbl.AddRow(c.topology, c.shape.String(), res.Accepted, res.Delivered, res.Refused,
			st.KilledInFlight+st.DropsEnRoute, st.Retransmits, st.Recovered,
			st.LostUnreachable, res.Availability(), meanLat, maxLat)
		pass = pass && res.Drained && !res.Deadlocked && !res.Stalled &&
			res.UnreachableAsPredicted && st.Duplicates == 0 &&
			res.Accepted-res.Delivered-st.LostUnreachable == 0
		opt.cellDone(res.EndCycle)
	}
	r.Tables = append(r.Tables, tbl)
	r.Pass = pass
	r.Notef("every topology absorbs the same router death: direct-link lattices lose only traffic addressed to the dead PE, as does the crossbar's detour facility")
	return nil
}
