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
	"sr2201/internal/stats"
)

func init() {
	register(Experiment{ID: "V2", Title: "Escape-VC adaptive routing defuses the Fig. 9 scenario", Paper: "Fig. 9 + VC extension", run: runV2})
	register(Experiment{ID: "V3", Title: "Single-fault availability map under adaptive routing", Paper: "Sec. 4 + VC extension", run: v3Map.run})
	register(Experiment{ID: "V4", Title: "Single-fault availability map at four virtual channels", Paper: "Sec. 4 + VC extension", run: v4Map.run})
}

// v2Rows are the bare separate-DXB Fig. 9 run, then the adaptive machine
// on the same workload at each broadcast offset: two lanes per wire,
// escape-VC routing, recovery armed so any deadlock would be visible as a
// sacrifice instead of a hang.
func v2Rows(opt Options) []row {
	offsets := []int64{0, 8, 16, 24, 32, 40}
	if opt.Quick {
		offsets = []int64{0, 16}
	}
	rows := []row{{[]any{"0", "separate, bare"}, fig9()}}
	for _, off := range offsets {
		t := unified(recovering(broadcastAt(fig9(), off)))
		t.Variant.VCs, t.Variant.Adaptive = 2, true
		rows = append(rows, row{[]any{fmt.Sprint(off), "adaptive vc=2"}, t})
	}
	return rows
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
func runV2(r *Report, opt Options) error {
	rows := v2Rows(opt)
	cells, err := sweepRows(opt, rows, nil)
	if err != nil {
		return err
	}

	tbl := stats.NewTable("V2 Fig. 9 workload: bare separate D-XB vs adaptive escape-VC (recovery armed)",
		"bcast@", "design", "outcome", "end cycle", "recoveries", "delivered", "adaptive", "bcopies")
	base := cells[0]
	tbl.AddRow(append(rows[0].label, cellOutcome(base), base.EndCycle, base.Recoveries, base.Delivered, 0, base.BroadcastCopies)...)
	clean := true
	totalAdaptive := 0
	for i, c := range cells[1:] {
		adeliv := adaptiveDeliveries(c)
		totalAdaptive += adeliv
		tbl.AddRow(append(rows[i+1].label, cellOutcome(c),
			c.EndCycle, c.Recoveries, c.Delivered, adeliv, c.BroadcastCopies)...)
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
	return nil
}

// laneMap is one V-series availability-map experiment: the exhaustive
// single-fault campaign (F2's, on 6x6) run at two lane depths — a control
// and a subject — plus a fault-free probe at the subject's depth. V3 puts
// the adaptive two-lane machine beside the static unified design; V4
// doubles the depth to four lanes — three adaptive over one escape, the
// certified escape discipline untouched — beside V3's two. Shape criterion,
// the same for both: each sweep finishes with zero deadlocks and zero
// stalls, every cell drains, every refusal matches the static post-fault
// prediction, losses stay exactly the documented ones — a mid-run fault can
// kill a packet inside a crossbar's adaptive lane, but retransmission must
// recover every such kill whose destination is alive — and the probe routes
// real traffic through the adaptive lanes when nothing forces it onto the
// escape.
type laneMap struct {
	// control and subject are the lanes per wire (0 = the static machine);
	// the names label their table rows.
	control, subject         int
	controlName, subjectName string
	title                    string
	// cellsNote and probeNote are the formats of the two notes.
	cellsNote, probeNote string
}

var (
	v3Map = laneMap{
		control: 0, controlName: "static", subject: 2, subjectName: "adaptive",
		title:     "V3 exhaustive single-fault map: static unified vs adaptive vc=2",
		cellsNote: "%d cells per design: adaptive sweep %d deadlocks, %d stalls, %d undrained, %d off-prediction, %d undocumented",
		probeNote: "fault-free probe: %d of %d deliveries took an adaptive lane; drain time %d vs static sweep total %d / adaptive %d",
	}
	v4Map = laneMap{
		control: 2, controlName: "adaptive vc=2", subject: 4, subjectName: "adaptive vc=4",
		title:     "V4 exhaustive single-fault map: adaptive vc=2 vs vc=4",
		cellsNote: "%d cells per depth: vc=4 sweep %d deadlocks, %d stalls, %d undrained, %d off-prediction, %d undocumented",
		probeNote: "fault-free probe at vc=4: %d of %d deliveries took an adaptive lane; drain time %d vs sweep totals vc=2 %d / vc=4 %d",
	}
)

// texts are the campaigns at the control and subject depths and the
// fault-free probe at the subject's.
func (lm laneMap) texts(opt Options) (control, subject, probe campaign.RunText) {
	at := func(vcs int) campaign.RunText {
		t := faultMap(opt, "6x6", "4x4", 7, 5)
		t.Variant = campaign.VariantText{VCs: vcs, Adaptive: vcs > 0}
		return t
	}
	control, subject = at(lm.control), at(lm.subject)
	probe = campaign.RunText{Shape: subject.Shape, Patterns: subject.Patterns[:1], Waves: 2, Gap: 24, Variant: subject.Variant}
	return control, subject, probe
}

func (lm laneMap) run(r *Report, opt Options) error {
	ct, st, pt := lm.texts(opt)
	control, err := runCampaign(opt, ct)
	if err != nil {
		return err
	}
	subject, err := runCampaign(opt, st)
	if err != nil {
		return err
	}
	ca, sa := auditMap(control), auditMap(subject)

	tbl := stats.NewTable(lm.title,
		"design", "cells", "deadlocks", "stalls", "undrained", "off-prediction", "undocumented", "total cycles")
	tbl.AddRow(lm.controlName, len(control.Cells), ca.deadlocks, ca.stalls, ca.undrained, ca.unpredicted, ca.undocumented, ca.cycles)
	tbl.AddRow(lm.subjectName, len(subject.Cells), sa.deadlocks, sa.stalls, sa.undrained, sa.unpredicted, sa.undocumented, sa.cycles)
	r.Tables = append(r.Tables, tbl)

	cells, err := sweepRows(opt, []row{{nil, pt}}, nil)
	if err != nil {
		return err
	}
	probe := cells[0]
	probeAdaptive := adaptiveDeliveries(probe)

	r.Pass = ca.clean() && sa.clean() &&
		probe.Drained && probe.Delivered == probe.Accepted && probeAdaptive > 0
	r.Notef(lm.cellsNote, len(subject.Cells), sa.deadlocks, sa.stalls, sa.undrained, sa.unpredicted, sa.undocumented)
	r.Notef(lm.probeNote, probeAdaptive, probe.Delivered, probe.EndCycle, ca.cycles, sa.cycles)
	return nil
}
