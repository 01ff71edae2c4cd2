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
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
	"sr2201/internal/recovery"
	"sr2201/internal/stats"
)

func init() {
	register(Experiment{ID: "R1", Title: "Deadlock recovery rescues the Fig. 9 separate-DXB design", Paper: "Fig. 9 + liveness extension", run: runR1})
	register(Experiment{ID: "R2", Title: "Multi-fault graceful degradation under recovery", Paper: "Sec. 4 + liveness extension", run: runR2})
}

// fig9Cell is the paper's Fig. 9 deadlocking configuration as a campaign
// cell: a 4x4 machine with a pre-set router fault at (2,1), one unicast
// detouring around it, and a broadcast crossing the detour. With a separate
// detour crossbar the two form a wait cycle; with the unified design they
// cannot.
func fig9Cell(separate, recov bool, broadcastAt int64) campaign.Spec {
	sp := campaign.Spec{
		Shape:       geom.MustShape(4, 4),
		SXB:         geom.Coord{0, 0},
		DXB:         geom.Coord{0, 3},
		DXBSeparate: separate,
		Preset:      []fault.Fault{fault.RouterFault(geom.Coord{2, 1})},
		Pattern:     campaign.Pair(geom.Coord{0, 1}, geom.Coord{2, 2}, 2),
		Waves:       1,
		Gap:         1,
		PacketSize:  24,
		Broadcasts:  []campaign.Broadcast{{Cycle: broadcastAt, Src: geom.Coord{3, 2}, Size: 24}},
		Inject:      inject.Options{Retransmit: true, RetryAfter: 32, StallThreshold: 256},
		Horizon:     20_000,
	}
	if recov {
		sp.Recovery = recovery.Options{Enabled: true, StallThreshold: 256}
	}
	return sp
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
	base, err := campaign.RunCell(fig9Cell(true, false, 0))
	if err != nil {
		return err
	}

	offsets := []int64{0, 8, 16, 24, 32, 40}
	if opt.Quick {
		offsets = []int64{0, 16}
	}
	type duel struct {
		sep, uni campaign.CellResult
	}
	duels, err := sweepCells(opt, len(offsets), func(i int) (duel, error) {
		sep, err := campaign.RunCell(fig9Cell(true, true, offsets[i]))
		if err != nil {
			return duel{}, err
		}
		uni, err := campaign.RunCell(fig9Cell(false, true, offsets[i]))
		if err != nil {
			return duel{}, err
		}
		return duel{sep: sep, uni: uni}, nil
	})
	if err != nil {
		return err
	}

	tbl := stats.NewTable("R1 Fig. 9 liveness: separate D-XB under recovery vs unified design",
		"bcast@", "design", "outcome", "end cycle", "recoveries", "delivered", "bcopies")
	tbl.AddRow("0", "separate, bare", cellOutcome(base), base.EndCycle, base.Recoveries, base.Delivered, base.BroadcastCopies)
	var sepCycles, uniCycles, totalRecov int64
	sepClean, uniClean := true, true
	for i, d := range duels {
		tbl.AddRow(fmt.Sprint(offsets[i]), "separate, recovery", cellOutcome(d.sep),
			d.sep.EndCycle, d.sep.Recoveries, d.sep.Delivered, d.sep.BroadcastCopies)
		tbl.AddRow(fmt.Sprint(offsets[i]), "unified, recovery armed", cellOutcome(d.uni),
			d.uni.EndCycle, d.uni.Recoveries, d.uni.Delivered, d.uni.BroadcastCopies)
		sepCycles += d.sep.EndCycle
		uniCycles += d.uni.EndCycle
		totalRecov += int64(d.sep.Recoveries)
		if !d.sep.Drained || d.sep.Livelocked || d.sep.Stats.Duplicates != 0 ||
			d.sep.Delivered != d.sep.Accepted {
			sepClean = false
		}
		if !d.uni.Drained || d.uni.Recoveries != 0 || d.uni.Stats.Duplicates != 0 ||
			d.uni.Delivered != d.uni.Accepted {
			uniClean = false
		}
	}
	r.Tables = append(r.Tables, tbl)

	r.Pass = base.Deadlocked && !base.Drained &&
		sepClean && uniClean &&
		duels[0].sep.Recoveries > 0 && totalRecov > 0 &&
		sepCycles > uniCycles
	r.Notef("bare separate-DXB design: %s at cycle %d — the paper's Fig. 9 wait cycle",
		cellOutcome(base), base.EndCycle)
	r.Notef("recovery rescues every offset: %d sacrifice(s), all retransmitted exactly once, zero duplicates",
		totalRecov)
	r.Notef("cost of rescue: %d total cycles on the separate design vs %d unified — the deadlock-free design needs no liveness layer",
		sepCycles, uniCycles)
	return nil
}

// r2Config sweeps a second fault over the Fig. 9 scenario: every placement
// of one more dead router or crossbar on top of the preset fault, with
// recovery enabled.
func r2Config(opt Options, separate bool) campaign.Config {
	epochs := []int64{40, 120}
	if opt.Quick {
		epochs = []int64{40}
	}
	return campaign.Config{
		Shape:       geom.MustShape(4, 4),
		SXB:         geom.Coord{0, 0},
		DXB:         geom.Coord{0, 3},
		DXBSeparate: separate,
		Preset:      []fault.Fault{fault.RouterFault(geom.Coord{2, 1})},
		Epochs:      epochs,
		Patterns:    []campaign.Pattern{campaign.Pair(geom.Coord{0, 1}, geom.Coord{2, 2}, 2)},
		Waves:       2,
		Gap:         30,
		PacketSize:  24,
		Broadcasts:  []campaign.Broadcast{{Cycle: 0, Src: geom.Coord{3, 2}, Size: 24}},
		Inject:      inject.Options{Retransmit: true, RetryAfter: 32, StallThreshold: 256},
		Recovery:    recovery.Options{Enabled: true, StallThreshold: 256},
		Horizon:     20_000,
		Parallel:    opt.Parallel,
		Hooks:       campaign.Hooks{Ctx: opt.Ctx},
		Budget:      opt.Budget,
		OnCell:      opt.OnCell,
	}
}

// runR2 runs the second-fault sweep on the deadlocking separate-DXB design
// under recovery, then the same sweep on the unified design as control.
// Shape criterion: no cell wedges — every deadlock is recovered or the cell
// is classified per pair (source dead / destination dead / unreachable)
// exactly as recovery.AnalyzeReachability predicts; zero livelocks, zero
// duplicates, exactly-once unicast accounting on every drained cell; and
// the unified control sweep reports zero recoveries and zero deadlocks.
func runR2(r *Report, opt Options) error {
	res, err := campaign.Run(r2Config(opt, true))
	if err != nil {
		return err
	}
	r.Tables = append(r.Tables, res.Table())

	wedged, unpredicted, undocumented := 0, 0, 0
	srcDead, dstDead, unreach := 0, 0, 0
	for _, c := range res.Cells {
		if c.Deadlocked || (c.Stalled && !c.Deadlocked) {
			wedged++
		}
		if !c.UnreachableAsPredicted {
			unpredicted++
		}
		st := c.Stats
		final := st.LostUnreachable + st.LostExhausted + st.LostUntraceable
		if st.Duplicates != 0 ||
			(c.Drained && c.Delivered+final != c.Accepted) ||
			c.BroadcastCopies+st.DropsOther > c.BroadcastCopiesExpected {
			undocumented++
		}
		srcDead += c.SourceDeadPairs
		dstDead += c.DestDeadPairs
		unreach += c.UnreachablePairs
	}

	control, err := campaign.Run(r2Config(opt, false))
	if err != nil {
		return err
	}

	r.Pass = res.Recoveries() > 0 && res.Livelocked() == 0 &&
		wedged == 0 && unpredicted == 0 && undocumented == 0 &&
		control.Recoveries() == 0 && control.Livelocked() == 0 && control.Deadlocks() == 0
	r.Notef("%d cells: %d recoveries, %d livelocked, %d wedged, %d refusals off-prediction, %d undocumented losses",
		len(res.Cells), res.Recoveries(), res.Livelocked(), wedged, unpredicted, undocumented)
	r.Notef("second fault kills the pair's source in %d cells, its destination in %d, strands it unreachable in %d — each reported per pair, never as a hang",
		srcDead, dstDead, unreach)
	r.Notef("unified D-XB = S-XB control sweep: %d recoveries, %d deadlocks across %d cells",
		control.Recoveries(), control.Deadlocks(), len(control.Cells))
	return nil
}
