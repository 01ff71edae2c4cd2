package experiments

// R-series: deadlock-recovery and graceful-degradation experiments. The
// paper proves the unified D-XB = S-XB design deadlock-free (Sec. 3.4) and
// Fig. 9 exhibits the wait cycle that forms when the detour crossbar is
// separate. These experiments run that deadlocking configuration to
// completion under the liveness layer (internal/recovery): a confirmed wait
// cycle is dissolved by sacrificing its lowest-ID packet to the
// retransmission machinery, and the cost of rescue is quantified against
// the deadlock-free design, which must never need it.

import (
	"fmt"

	"sr2201/internal/campaign"
	"sr2201/internal/stats"
)

func init() {
	register(Experiment{ID: "R1", Title: "Deadlock recovery rescues the Fig. 9 separate-DXB design", Paper: "Fig. 9 + liveness extension", run: runR1})
	register(Experiment{ID: "R2", Title: "Multi-fault graceful degradation under recovery", Paper: "Sec. 4 + liveness extension", run: runR2})
}

// cellOutcome renders a cell's terminal state for the R1 table.
func cellOutcome(c campaign.CellResult) string {
	switch {
	case c.Livelocked:
		return "livelock"
	case c.Deadlocked:
		return "deadlock"
	case c.Stalled:
		return "stalled"
	case c.Drained:
		return "drained"
	default:
		return "horizon"
	}
}

// r1Rows are the Fig. 9 workload bare on the separate-DXB design, then at
// each broadcast offset that design under recovery beside the unified
// design with recovery armed.
func r1Rows(opt Options) []row {
	offsets := []int64{0, 8, 16, 24, 32, 40}
	if opt.Quick {
		offsets = []int64{0, 16}
	}
	rows := []row{{[]any{"0", "separate, bare"}, fig9()}}
	for _, off := range offsets {
		t := recovering(broadcastAt(fig9(), off))
		rows = append(rows,
			row{[]any{fmt.Sprint(off), "separate, recovery"}, t},
			row{[]any{fmt.Sprint(off), "unified, recovery armed"}, unified(t)})
	}
	return rows
}

// runR1 contrasts three runs of the Fig. 9 workload — the separate-DXB
// design bare (it must deadlock), the same design under recovery (it must
// drain), and the unified design with recovery armed (it must drain without
// ever firing) — then sweeps the broadcast offset to quantify the latency
// cost of rescue. Shape criterion: the bare run deadlocks; every recovered
// run drains with exactly-once delivery and zero duplicates; the unified
// design reports zero recoveries at every offset; and rescue costs cycles —
// the recovered design's total drain time strictly exceeds the unified
// design's.
func runR1(r *Report, opt Options) error {
	rows := r1Rows(opt)
	cells, err := sweepRows(opt, rows, nil)
	if err != nil {
		return err
	}

	tbl := stats.NewTable("R1 Fig. 9 liveness: separate D-XB under recovery vs unified design",
		"bcast@", "design", "outcome", "end cycle", "recoveries", "delivered", "bcopies")
	for i, c := range cells {
		tbl.AddRow(append(rows[i].label, cellOutcome(c), c.EndCycle, c.Recoveries, c.Delivered, c.BroadcastCopies)...)
	}
	clean := func(c campaign.CellResult) bool {
		return c.Drained && !c.Livelocked && c.Stats.Duplicates == 0 && c.Delivered == c.Accepted
	}
	var sepCycles, uniCycles, totalRecov int64
	sepClean, uniClean := true, true
	for i := 1; i < len(cells); i += 2 {
		sep, uni := cells[i], cells[i+1]
		sepCycles += sep.EndCycle
		uniCycles += uni.EndCycle
		totalRecov += int64(sep.Recoveries)
		sepClean = sepClean && clean(sep)
		uniClean = uniClean && clean(uni) && uni.Recoveries == 0
	}
	r.Tables = append(r.Tables, tbl)

	base := cells[0]
	r.Pass = base.Deadlocked && !base.Drained &&
		sepClean && uniClean &&
		cells[1].Recoveries > 0 && totalRecov > 0 &&
		sepCycles > uniCycles
	r.Notef("bare separate-DXB design: %s at cycle %d — the paper's Fig. 9 wait cycle",
		cellOutcome(base), base.EndCycle)
	r.Notef("recovery rescues every offset: %d sacrifice(s), all retransmitted exactly once, zero duplicates",
		totalRecov)
	r.Notef("cost of rescue: %d total cycles on the separate design vs %d unified — the deadlock-free design needs no liveness layer",
		sepCycles, uniCycles)
	return nil
}

// r2 sweeps a second fault over the Fig. 9 scenario: every placement of one
// more dead router or crossbar on top of the preset fault, two waves, with
// recovery armed.
func r2(opt Options) campaign.RunText {
	t := recovering(fig9())
	t.Waves, t.Gap, t.Epochs = 2, 30, []int64{40, 120}
	if opt.Quick {
		t.Epochs = []int64{40}
	}
	return t
}

// runR2 runs the second-fault sweep on the deadlocking separate-DXB design
// under recovery, then the same sweep on the unified design as control.
// Shape criterion: no cell wedges — every deadlock is recovered or the cell
// is classified per pair (source dead / destination dead / unreachable)
// exactly as recovery.AnalyzeReachability predicts; zero livelocks, zero
// duplicates, exactly-once unicast accounting on every cell (the map audit);
// and the unified control sweep reports zero recoveries and zero deadlocks.
func runR2(r *Report, opt Options) error {
	res, err := runCampaign(opt, r2(opt))
	if err != nil {
		return err
	}
	r.Tables = append(r.Tables, res.Table())
	a := auditMap(res)

	control, err := runCampaign(opt, unified(r2(opt)))
	if err != nil {
		return err
	}

	r.Pass = res.Recoveries() > 0 && res.Livelocked() == 0 && a.clean() &&
		control.Recoveries() == 0 && control.Livelocked() == 0 && control.Deadlocks() == 0
	r.Notef("%d cells: %d recoveries, %d livelocked, %d wedged, %d refusals off-prediction, %d undocumented losses",
		len(res.Cells), res.Recoveries(), res.Livelocked(), a.deadlocks+a.stalls, a.unpredicted, a.undocumented)
	r.Notef("second fault kills the pair's source in %d cells, its destination in %d, strands it unreachable in %d — each reported per pair, never as a hang",
		a.srcDead, a.dstDead, a.unreach)
	r.Notef("unified D-XB = S-XB control sweep: %d recoveries, %d deadlocks across %d cells",
		control.Recoveries(), control.Deadlocks(), len(control.Cells))
	return nil
}
