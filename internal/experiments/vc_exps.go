package experiments

// V-series (virtual channels): escape-VC adaptive routing experiments. The
// paper's design is deadlock-free by construction (Sec. 3.4); the adaptive
// extension (internal/routing.VCPolicy) trades that static discipline for
// run-time freedom — any minimal productive hop on lanes 1..V-1 — and keeps
// deadlock freedom through the certified escape channel on lane 0. These
// experiments rerun the deadlock and fault artifacts under the adaptive
// variant: the Fig. 9 scenario must now complete without the liveness layer
// ever firing, and the exhaustive single-fault map must stay clean.

import (
	"fmt"

	"sr2201/internal/campaign"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
	"sr2201/internal/stats"
)

func init() {
	register(Experiment{ID: "V2", Title: "Escape-VC adaptive routing defuses the Fig. 9 scenario", Paper: "Fig. 9 + VC extension", Run: runV2})
	register(Experiment{ID: "V3", Title: "Single-fault availability map under adaptive routing", Paper: "Sec. 4 + VC extension", Run: runV3})
	register(Experiment{ID: "V4", Title: "Single-fault availability map at four virtual channels", Paper: "Sec. 4 + VC extension", Run: runV4})
}

// adaptiveFig9 is the Fig. 9 workload — preset router fault, detouring
// unicast pair, crossing broadcast — on the adaptive machine: two lanes per
// wire, escape-VC routing, recovery armed so any deadlock would be visible
// as a sacrifice instead of a hang.
func adaptiveFig9(broadcastAt int64) campaign.Spec {
	sp := fig9Cell(false, true, broadcastAt)
	sp.VCs = 2
	sp.Adaptive = true
	sp.KeepDeliveries = true
	return sp
}

// adaptiveDeliveries counts deliveries that took at least one adaptive hop.
func adaptiveDeliveries(c campaign.CellResult) int {
	n := 0
	for _, d := range c.Deliveries {
		if d.Adaptive {
			n++
		}
	}
	return n
}

// runV2 contrasts the bare separate-DXB Fig. 9 run (it must deadlock) with
// the adaptive machine on the same workload across broadcast offsets. Shape
// criterion: the bare run deadlocks; every adaptive run drains with
// exactly-once delivery, zero duplicates, a full broadcast fan — and zero
// recovery interventions, with the supervisor armed the whole time: the
// escape channel, not the sacrifice mechanism, is what keeps it live. At
// least one delivery must actually use an adaptive lane, so the result
// certifies the adaptive path and not a degenerate escape-only run.
func runV2(opt Options) (*Report, error) {
	r := &Report{ID: "V2", Title: "Escape-VC adaptive routing defuses the Fig. 9 scenario", Paper: "Fig. 9 + VC extension"}

	base, err := campaign.RunCell(fig9Cell(true, false, 0))
	if err != nil {
		return nil, err
	}

	offsets := []int64{0, 8, 16, 24, 32, 40}
	if opt.Quick {
		offsets = []int64{0, 16}
	}
	cells, err := sweepCells(opt, len(offsets), func(i int) (campaign.CellResult, error) {
		return campaign.RunCell(adaptiveFig9(offsets[i]))
	})
	if err != nil {
		return nil, err
	}

	tbl := stats.NewTable("V2 Fig. 9 workload: bare separate D-XB vs adaptive escape-VC (recovery armed)",
		"bcast@", "design", "outcome", "end cycle", "recoveries", "delivered", "adaptive", "bcopies")
	tbl.AddRow("0", "separate, bare", cellOutcome(base), base.EndCycle, base.Recoveries, base.Delivered, 0, base.BroadcastCopies)
	clean := true
	totalAdaptive := 0
	for i, c := range cells {
		adeliv := adaptiveDeliveries(c)
		totalAdaptive += adeliv
		tbl.AddRow(fmt.Sprint(offsets[i]), "adaptive vc=2", cellOutcome(c),
			c.EndCycle, c.Recoveries, c.Delivered, adeliv, c.BroadcastCopies)
		if !c.Drained || c.Livelocked || c.Recoveries != 0 ||
			c.Stats.Duplicates != 0 || c.Delivered != c.Accepted ||
			c.BroadcastCopies != c.BroadcastCopiesExpected {
			clean = false
		}
	}
	r.Tables = append(r.Tables, tbl)

	r.Pass = base.Deadlocked && !base.Drained && clean && totalAdaptive > 0
	r.Notef("bare separate-DXB design: %s at cycle %d — the paper's Fig. 9 wait cycle",
		cellOutcome(base), base.EndCycle)
	r.Notef("adaptive machine: every offset drains with 0 recoveries (supervisor armed), %d deliveries took an adaptive lane",
		totalAdaptive)
	r.Notef("deadlock freedom comes from the certified escape channel (internal/topo/escape), not from sacrifice")
	return r, nil
}

// v3Config is the F2-style exhaustive single-fault campaign, optionally on
// the adaptive machine with vcs lanes per wire (0 = the static machine).
func v3Config(opt Options, vcs int) campaign.Config {
	cfg := campaign.Config{
		Shape:    geom.MustShape(6, 6),
		Epochs:   []int64{8, 40},
		Patterns: []campaign.Pattern{campaign.Shift(7), campaign.Reverse()},
		Waves:    4,
		Gap:      24,
		Inject: inject.Options{
			Retransmit:     true,
			RetryAfter:     24,
			StallThreshold: 256,
		},
		Parallel: opt.Parallel,
		Hooks:    campaign.Hooks{Ctx: opt.Ctx},
		Budget:   opt.Budget,
		OnCell:   opt.OnCell,
	}
	if opt.Quick {
		cfg.Shape = geom.MustShape(4, 4)
		cfg.Epochs = []int64{12}
		cfg.Patterns = []campaign.Pattern{campaign.Shift(5)}
	}
	if vcs > 0 {
		cfg.VCs = vcs
		cfg.Adaptive = true
	}
	return cfg
}

// vcAudit applies the V-series cleanliness checks to one sweep: every cell
// drains, refusals match the static post-fault prediction, and losses stay
// exactly the documented ones.
func vcAudit(res *campaign.Result) (undrained, unpredicted, undocumented int) {
	for _, c := range res.Cells {
		if !c.Drained {
			undrained++
		}
		if !c.UnreachableAsPredicted {
			unpredicted++
		}
		st := c.Stats
		if st.Duplicates != 0 || st.LostExhausted != 0 || st.LostUntraceable != 0 ||
			st.DropsOther != 0 || c.Delivered+finalLosses(st) != c.Accepted {
			undocumented++
		}
	}
	return
}

// runV3 reruns the exhaustive single-fault availability map (F2) on the
// adaptive machine, with the static unified design as control. Shape
// criterion: both sweeps finish with zero deadlocks and zero stalls, every
// cell drains, every refusal matches the static post-fault prediction, and
// the adaptive sweep's losses stay exactly the documented ones — a mid-run
// fault can kill a packet inside a crossbar's adaptive lane, but
// retransmission must recover every such kill whose destination is alive.
func runV3(opt Options) (*Report, error) {
	r := &Report{ID: "V3", Title: "Single-fault availability map under adaptive routing", Paper: "Sec. 4 + VC extension"}

	acfg := v3Config(opt, 2)
	static, err := campaign.Run(v3Config(opt, 0))
	if err != nil {
		return nil, err
	}
	adaptive, err := campaign.Run(acfg)
	if err != nil {
		return nil, err
	}
	sUndrained, sUnpred, sUndoc := vcAudit(static)
	aUndrained, aUnpred, aUndoc := vcAudit(adaptive)

	var sCycles, aCycles int64
	for _, c := range static.Cells {
		sCycles += c.EndCycle
	}
	for _, c := range adaptive.Cells {
		aCycles += c.EndCycle
	}

	tbl := stats.NewTable("V3 exhaustive single-fault map: static unified vs adaptive vc=2",
		"design", "cells", "deadlocks", "stalls", "undrained", "off-prediction", "undocumented", "total cycles")
	tbl.AddRow("static", len(static.Cells), static.Deadlocks(), static.Stalls(), sUndrained, sUnpred, sUndoc, sCycles)
	tbl.AddRow("adaptive", len(adaptive.Cells), adaptive.Deadlocks(), adaptive.Stalls(), aUndrained, aUnpred, aUndoc, aCycles)
	r.Tables = append(r.Tables, tbl)

	// Fault-free probe under the same traffic: the adaptive lanes must
	// actually carry packets when nothing forces them onto the escape.
	probeSpec := campaign.Spec{
		Shape:          acfg.Shape,
		Pattern:        acfg.Patterns[0],
		Waves:          2,
		Gap:            24,
		VCs:            2,
		Adaptive:       true,
		KeepDeliveries: true,
	}
	probe, err := campaign.RunCell(probeSpec)
	if err != nil {
		return nil, err
	}
	probeAdaptive := adaptiveDeliveries(probe)

	r.Pass = static.Deadlocks() == 0 && static.Stalls() == 0 && sUndrained == 0 && sUnpred == 0 && sUndoc == 0 &&
		adaptive.Deadlocks() == 0 && adaptive.Stalls() == 0 && aUndrained == 0 && aUnpred == 0 && aUndoc == 0 &&
		probe.Drained && probe.Delivered == probe.Accepted && probeAdaptive > 0
	r.Notef("%d cells per design: adaptive sweep %d deadlocks, %d stalls, %d undrained, %d off-prediction, %d undocumented",
		len(adaptive.Cells), adaptive.Deadlocks(), adaptive.Stalls(), aUndrained, aUnpred, aUndoc)
	r.Notef("fault-free probe: %d of %d deliveries took an adaptive lane; drain time %d vs static sweep total %d / adaptive %d",
		probeAdaptive, probe.Delivered, probe.EndCycle, sCycles, aCycles)
	return r, nil
}

// runV4 reruns the exhaustive single-fault availability map with the lane
// depth doubled to four virtual channels per wire, against the two-lane
// machine of V3 as control. Deeper lanes widen the adaptive choice set —
// three adaptive lanes over one escape — without touching the certified
// escape discipline, so the map must stay exactly as clean as V3's. Shape
// criterion: both sweeps finish with zero deadlocks and zero stalls, every
// cell drains, every refusal matches the static post-fault prediction,
// losses stay exactly the documented ones, and the fault-free probe still
// routes real traffic through the adaptive lanes at depth four.
func runV4(opt Options) (*Report, error) {
	r := &Report{ID: "V4", Title: "Single-fault availability map at four virtual channels", Paper: "Sec. 4 + VC extension"}

	qcfg := v3Config(opt, 4)
	two, err := campaign.Run(v3Config(opt, 2))
	if err != nil {
		return nil, err
	}
	four, err := campaign.Run(qcfg)
	if err != nil {
		return nil, err
	}
	tUndrained, tUnpred, tUndoc := vcAudit(two)
	fUndrained, fUnpred, fUndoc := vcAudit(four)

	var tCycles, fCycles int64
	for _, c := range two.Cells {
		tCycles += c.EndCycle
	}
	for _, c := range four.Cells {
		fCycles += c.EndCycle
	}

	tbl := stats.NewTable("V4 exhaustive single-fault map: adaptive vc=2 vs vc=4",
		"design", "cells", "deadlocks", "stalls", "undrained", "off-prediction", "undocumented", "total cycles")
	tbl.AddRow("adaptive vc=2", len(two.Cells), two.Deadlocks(), two.Stalls(), tUndrained, tUnpred, tUndoc, tCycles)
	tbl.AddRow("adaptive vc=4", len(four.Cells), four.Deadlocks(), four.Stalls(), fUndrained, fUnpred, fUndoc, fCycles)
	r.Tables = append(r.Tables, tbl)

	// Fault-free probe at depth four: the extra lanes must carry traffic.
	probeSpec := campaign.Spec{
		Shape:          qcfg.Shape,
		Pattern:        qcfg.Patterns[0],
		Waves:          2,
		Gap:            24,
		VCs:            4,
		Adaptive:       true,
		KeepDeliveries: true,
	}
	probe, err := campaign.RunCell(probeSpec)
	if err != nil {
		return nil, err
	}
	probeAdaptive := adaptiveDeliveries(probe)

	r.Pass = two.Deadlocks() == 0 && two.Stalls() == 0 && tUndrained == 0 && tUnpred == 0 && tUndoc == 0 &&
		four.Deadlocks() == 0 && four.Stalls() == 0 && fUndrained == 0 && fUnpred == 0 && fUndoc == 0 &&
		probe.Drained && probe.Delivered == probe.Accepted && probeAdaptive > 0
	r.Notef("%d cells per depth: vc=4 sweep %d deadlocks, %d stalls, %d undrained, %d off-prediction, %d undocumented",
		len(four.Cells), four.Deadlocks(), four.Stalls(), fUndrained, fUnpred, fUndoc)
	r.Notef("fault-free probe at vc=4: %d of %d deliveries took an adaptive lane; drain time %d vs sweep totals vc=2 %d / vc=4 %d",
		probeAdaptive, probe.Delivered, probe.EndCycle, tCycles, fCycles)
	return r, nil
}
