package experiments

// DR-series (dynamic reconfiguration): online routing-table reconfiguration
// experiments. PR 5's answer to a mid-run fault is rebuild-in-place — every
// packet, old and new, routes under the freshly compiled table at once, and
// whatever deadlocks that unprotected window produces is the recovery
// supervisor's to purge and retransmit. internal/reconfig replaces that with
// an epoch-stamped swap: in-flight packets keep their old tables, the
// transition window is certified safe by proving the union dependence graph
// (old edges ∪ new edges, restricted to live channels and in-flight traffic
// classes) acyclic before the commit, and a cyclic union degrades to a
// bounded drain. These experiments price the difference on the paper's own
// artifacts: the Fig. 9 configuration with the fault landing mid-run (DR1)
// and the R2 second-fault sweep (DR2), counting packets lost and cycles of
// downtime under each strategy.

import (
	"strings"

	"sr2201/internal/campaign"
	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
	"sr2201/internal/reconfig"
	"sr2201/internal/recovery"
	"sr2201/internal/stats"
)

func init() {
	register(Experiment{ID: "DR1", Title: "Online reconfiguration vs purge-and-retransmit on the mid-run Fig. 9 fault", Paper: "Fig. 9 + reconfiguration extension", run: runDR1})
	register(Experiment{ID: "DR2", Title: "Second-fault sweep under online reconfiguration", Paper: "Sec. 4 + reconfiguration extension", run: runDR2})
}

// dr1Cell is the Fig. 9 configuration with the fault landing MID-RUN: a 4x4
// separate-D-XB machine whose router (2,1) dies at faultAt (a scheduled
// event, not a preset), a two-packet unicast pair that detours around it
// afterwards, and a broadcast crossing the detour. reconfigMode selects the
// trigger mode ("" = PR 5 rebuild-in-place); recovery stays armed in every
// cell so a deadlock is visible as a sacrifice, never a hang.
func dr1Cell(reconfigMode string, faultAt, bcastAt, wave2At int64) campaign.Spec {
	return campaign.Spec{
		Shape:       geom.MustShape(4, 4),
		SXB:         geom.Coord{0, 0},
		DXB:         geom.Coord{0, 3},
		DXBSeparate: true,
		Events:      []inject.Event{{Cycle: faultAt, Fault: fault.RouterFault(geom.Coord{2, 1})}},
		Pattern:     campaign.Pair(geom.Coord{0, 1}, geom.Coord{2, 2}, 2),
		Waves:       2,
		Gap:         wave2At,
		PacketSize:  24,
		Broadcasts:  []campaign.Broadcast{{Cycle: bcastAt, Src: geom.Coord{3, 2}, Size: 24}},
		Inject:      inject.Options{Retransmit: true, RetryAfter: 32, StallThreshold: 256},
		Recovery:    recovery.Options{Enabled: true, StallThreshold: 256},
		Reconfig:    reconfigMode,
		Horizon:     20_000,
	}
}

// drainCell is the DR1 inadmissible-window scenario: the Fig. 9 machine and
// broadcast, with the unicast pair shifted off the dying router so both
// traffic classes are still in flight when the fault fires.
func drainCell() campaign.Spec {
	sp := dr1Cell(core.ReconfigOnFault, 8, 0, 48)
	sp.Pattern = campaign.Pair(geom.Coord{0, 0}, geom.Coord{3, 3}, 2)
	return sp
}

// runReconfigCell runs one cell collecting its reconfiguration events, so a
// report can pin the transition certificates alongside the verdict.
func runReconfigCell(spec campaign.Spec) (campaign.CellResult, []reconfig.Event, error) {
	var events []reconfig.Event
	spec.OnReconfig = func(ev reconfig.Event) { events = append(events, ev) }
	res, err := campaign.RunCell(spec)
	return res, events, err
}

// packetsLost is the experiment's price metric: every packet the strategy
// sacrificed (recovery victims, transition-drain purges) or terminally
// failed to deliver (retry exhaustion, unreachability, lost headers,
// non-retransmittable broadcast branches). A sacrificed packet whose
// retransmission succeeds still costs 1 — that is the purge-and-retransmit
// price the reconfiguration is trying to avoid.
func packetsLost(c campaign.CellResult) int {
	return c.Stats.Victims + c.ReconfigDrained + finalLosses(c.Stats)
}

// runDR1 prices a mid-run fault on the Fig. 9 configuration three ways. The
// control keeps PR 5 semantics: the fault rebuilds the separate-D-XB table in
// place, the subsequent detour+broadcast wait cycle deadlocks, and recovery
// purges a victim — purge-and-retransmit. The hot-swap cell lands the same
// fault with reconfiguration on while the network is quiet: the union graph
// is acyclic, the machine swaps to the unified scheme live, and the same
// traffic drains with zero recoveries and zero losses. The drain cell lands
// the fault while both traffic classes are in flight: the union graph is
// provably cyclic (its witness is pinned in the notes), so the swap commits
// only after a bounded drain of the retiring packets. Shape criterion: the
// control deadlocks and loses strictly more packets than the hot-swap cell,
// which runs the identical workload; both reconfigured cells drain with zero
// post-swap recoveries; every committed swap carries an acyclicity
// certificate for its static graph; and the drain cell purges no more than
// its in-flight population while pinning a concrete cycle witness both for
// the refused separate-scheme recompile and for the cyclic transition union.
func runDR1(r *Report, opt Options) error {
	type cell struct {
		name string
		spec campaign.Spec
	}
	cells := []cell{
		// Fault at 40: the first wave has drained, the second wave and the
		// broadcast inject at 48 — after the swap window. The control walks
		// straight into the Fig. 9 wait cycle under its rebuilt-in-place
		// separate tables; the reconfigured run has already hot-swapped to
		// the unified scheme.
		{"purge-and-retransmit", dr1Cell("", 40, 48, 48)},
		{"reconfig, hot swap", dr1Cell(core.ReconfigOnFault, 40, 48, 48)},
		// Fault at 8: the broadcast and a unicast pair are in flight, so the
		// transition union is cyclic and must drain. The pair is shifted to
		// (0,0)->(3,3) — a path that avoids the dying router — because an
		// in-flight packet the fault itself kills never reaches the
		// admissibility check; the inadmissible window needs survivors of
		// both traffic classes.
		{"reconfig, drain", drainCell()},
	}

	type outcome struct {
		res campaign.CellResult
		evs []reconfig.Event
	}
	outs, err := sweepCells(opt, len(cells), func(i int) (outcome, error) {
		res, evs, err := runReconfigCell(cells[i].spec)
		return outcome{res, evs}, err
	})
	if err != nil {
		return err
	}

	tbl := stats.NewTable("DR1 mid-run Fig. 9 fault: PR 5 purge-and-retransmit vs online reconfiguration",
		"strategy", "outcome", "end cycle", "recoveries", "swaps", "drained", "victims", "delivered", "bcopies", "lost")
	for i, o := range outs {
		c := o.res
		tbl.AddRow(cells[i].name, cellOutcome(c), c.EndCycle, c.Recoveries, c.Reconfigured,
			c.ReconfigDrained, c.Stats.Victims, c.Delivered, c.BroadcastCopies, packetsLost(c))
	}
	r.Tables = append(r.Tables, tbl)

	control, hot, drain := outs[0].res, outs[1].res, outs[2].res
	certified := true
	refusalPinned, unionPinned := false, false
	for _, o := range outs[1:] {
		for _, ev := range o.evs {
			r.Notef("%s", ev)
			switch ev.Outcome {
			case reconfig.OutcomeHotSwap:
				if !ev.Candidate.Acyclic || !ev.Union.Acyclic {
					certified = false
				}
			case reconfig.OutcomeDrain:
				if !ev.Candidate.Acyclic {
					certified = false
				}
				if !ev.Union.Acyclic && len(ev.Union.Cycle) > 0 {
					unionPinned = true
					r.Notef("union witness: %s", strings.Join(ev.Union.Cycle, " -> "))
				}
			default:
				certified = false
			}
			for _, ref := range ev.Refusals {
				if !ref.Acyclic && len(ref.Cycle) > 0 {
					refusalPinned = true
					r.Notef("refused recompile of %s: cycle %s", ref.Scheme, strings.Join(ref.Cycle, " -> "))
				}
			}
		}
	}

	r.Pass = control.Drained && control.Recoveries > 0 &&
		hot.Drained && hot.Recoveries == 0 && hot.Reconfigured == 1 && hot.ReconfigDrained == 0 &&
		drain.Drained && drain.Recoveries == 0 && drain.Reconfigured == 1 &&
		drain.ReconfigDrained > 0 && drain.ReconfigDrained <= reconfig.DefaultDrainBudget &&
		packetsLost(hot) < packetsLost(control) &&
		certified && refusalPinned && unionPinned
	r.Notef("purge-and-retransmit: deadlock in the unprotected swap window, %d sacrifice(s), %d packet(s) lost, drained at cycle %d",
		control.Stats.Victims, packetsLost(control), control.EndCycle)
	r.Notef("hot swap: %d packet(s) lost, zero recoveries, drained at cycle %d — the certified transition never exposes the deadlocking window",
		packetsLost(hot), hot.EndCycle)
	r.Notef("bounded drain: %d retiring packet(s) purged under certificate, %d lost, drained at cycle %d",
		drain.ReconfigDrained, packetsLost(drain), drain.EndCycle)
	return nil
}

// dr2Config is the R2 second-fault sweep — every placement of one more dead
// router or crossbar over the preset Fig. 9 fault on the separate-D-XB
// design — with online reconfiguration layered on (or off, for the PR 5
// control).
func dr2Config(opt Options, reconfigMode string) campaign.Config {
	cfg := r2Config(opt, true)
	cfg.Reconfig = reconfigMode
	return cfg
}

// runDR2 reruns the R2 second-fault sweep with reconfiguration triggered by
// both mid-run faults and confirmed deadlocks, against the PR 5
// purge-and-retransmit control. Shape criterion: the reconfigured sweep
// commits at least one swap, never falls back to rebuild-in-place, needs
// strictly fewer recoveries and loses strictly fewer packets than the
// control, and stays as clean as R2 demands — zero wedges, zero livelocks,
// refusals exactly as reachability predicts, no undocumented losses.
func runDR2(r *Report, opt Options) error {
	control, err := campaign.Run(dr2Config(opt, ""))
	if err != nil {
		return err
	}
	recfg, err := campaign.Run(dr2Config(opt, core.ReconfigBoth))
	if err != nil {
		return err
	}

	audit := func(res *campaign.Result) (wedged, unpredicted, undocumented, sacrificed, lost int) {
		for _, c := range res.Cells {
			if (c.Deadlocked && !c.Drained) || (c.Stalled && !c.Deadlocked) {
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
			sacrificed += st.Victims + c.ReconfigDrained
			lost += finalLosses(st)
		}
		return
	}
	cWedged, cUnpred, cUndoc, cSacr, cLost := audit(control)
	rWedged, rUnpred, rUndoc, rSacr, rLost := audit(recfg)

	var cCycles, rCycles int64
	for _, c := range control.Cells {
		cCycles += c.EndCycle
	}
	for _, c := range recfg.Cells {
		rCycles += c.EndCycle
	}

	tbl := stats.NewTable("DR2 second-fault sweep: PR 5 purge-and-retransmit vs reconfig mode=both",
		"strategy", "cells", "recoveries", "swaps", "drained", "fellback", "wedged", "undocumented", "sacrificed", "lost", "total cycles")
	tbl.AddRow("purge-and-retransmit", len(control.Cells), control.Recoveries(), 0, 0, 0, cWedged, cUndoc, cSacr, cLost, cCycles)
	tbl.AddRow("reconfig both", len(recfg.Cells), recfg.Recoveries(), recfg.Reconfigured(), recfg.ReconfigDrained(), recfg.ReconfigFellBack(), rWedged, rUndoc, rSacr, rLost, rCycles)
	r.Tables = append(r.Tables, tbl)

	r.Pass = recfg.Reconfigured() > 0 && recfg.ReconfigFellBack() == 0 &&
		recfg.Recoveries() < control.Recoveries() &&
		recfg.Livelocked() == 0 && rWedged == 0 && rUnpred == 0 && rUndoc == 0 &&
		control.Livelocked() == 0 && cWedged == 0 && cUnpred == 0 && cUndoc == 0
	r.Notef("%d cells per strategy: reconfiguration commits %d swap(s) (%d drained packet(s), %d fallback(s)) and cuts recoveries %d -> %d",
		len(recfg.Cells), recfg.Reconfigured(), recfg.ReconfigDrained(), recfg.ReconfigFellBack(), control.Recoveries(), recfg.Recoveries())
	r.Notef("sacrificed packets %d -> %d, terminal losses %d -> %d, total drain cycles %d -> %d",
		cSacr, rSacr, cLost, rLost, cCycles, rCycles)
	return nil
}
