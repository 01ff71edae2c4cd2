package experiments

// DR-series (dynamic reconfiguration): online routing-table reconfiguration
// experiments. PR 5's answer to a mid-run fault is rebuild-in-place — every
// packet, old and new, routes under the freshly compiled table at once, and
// whatever deadlocks that unprotected window produces is the recovery
// supervisor's to purge and retransmit. internal/reconfig replaces that with
// an epoch-stamped swap: in-flight packets keep their old tables, and the
// transition window is certified safe by proving the union dependence graph
// (old edges ∪ new edges, restricted to live channels and in-flight traffic
// classes) acyclic before the commit. A cyclic union falls back to the
// rebuild, under recovery. These experiments price the difference on the
// paper's own artifacts: the Fig. 9 configuration with the fault landing
// mid-run (DR1) and the R2 second-fault sweep (DR2), counting packets lost
// and cycles of downtime under each strategy.

import (
	"strings"
	"sync/atomic"

	"sr2201/internal/campaign"
	"sr2201/internal/core"
	"sr2201/internal/reconfig"
	"sr2201/internal/stats"
)

func init() {
	register(Experiment{ID: "DR1", Title: "Online reconfiguration vs purge-and-retransmit on the mid-run Fig. 9 fault", Paper: "Fig. 9 + reconfiguration extension", run: runDR1})
	register(Experiment{ID: "DR2", Title: "Second-fault sweep under online reconfiguration", Paper: "Sec. 4 + reconfiguration extension", run: runDR2})
}

// dr1Rows are the Fig. 9 configuration with the fault landing MID-RUN: the
// separate-D-XB machine whose router (2,1) dies at a scheduled cycle, a
// two-packet unicast pair and a broadcast crossing the detour. Recovery stays
// armed in every row so a deadlock is visible as a sacrifice, never a hang;
// the rows differ in the reconfiguration trigger ("" = PR 5
// rebuild-in-place) and in when the fault lands.
func dr1Rows() []row {
	// Fault at 40: the first wave has drained, the second wave and the
	// broadcast inject at 48 — after the swap window. The control walks
	// straight into the Fig. 9 wait cycle under its rebuilt-in-place
	// separate tables; the reconfigured run has already hot-swapped to the
	// unified scheme.
	control := broadcastAt(recovering(failAt(fig9(), 40)), 48)
	control.Waves, control.Gap = 2, 48
	hot := control
	hot.Reconfig.Mode = core.ReconfigOnFault
	// Fault at 8: the broadcast and a unicast pair are in flight, so the
	// transition union is cyclic and the swap falls back to rebuild-in-place
	// under recovery. The pair is shifted to (0,0)->(3,3) — a path that
	// avoids the dying router — because an in-flight packet the fault itself
	// kills never reaches the admissibility check; the inadmissible window
	// needs survivors of both traffic classes.
	cyclic := recovering(failAt(fig9(), 8))
	cyclic.Waves, cyclic.Gap, cyclic.Patterns = 2, 48, []string{"pair:0,0>3,3"}
	cyclic.Reconfig.Mode = core.ReconfigOnFault
	return []row{
		{[]any{"purge-and-retransmit"}, control},
		{[]any{"reconfig, hot swap"}, hot},
		{[]any{"reconfig, cyclic union"}, cyclic},
	}
}

// packetsLost is the experiment's price metric: every packet the strategy
// sacrificed (recovery victims) or terminally failed to deliver (retry
// exhaustion, unreachability, lost headers, non-retransmittable broadcast
// branches). A sacrificed packet whose retransmission succeeds still costs
// 1 — that is the purge-and-retransmit price the reconfiguration is trying
// to avoid.
func packetsLost(c campaign.CellResult) int {
	return c.Stats.Victims + finalLosses(c.Stats)
}

// runDR1 prices a mid-run fault on the Fig. 9 configuration three ways. The
// control keeps PR 5 semantics: the fault rebuilds the separate-D-XB table in
// place, the subsequent detour+broadcast wait cycle deadlocks, and recovery
// purges a victim — purge-and-retransmit. The hot-swap cell lands the same
// fault with reconfiguration on while the network is quiet: the union graph
// is acyclic, the machine swaps to the unified scheme live, and the same
// traffic drains with zero recoveries and zero losses. The cyclic cell lands
// the fault while both traffic classes are in flight: the union graph is
// provably cyclic (its witness is pinned in the notes), so the manager
// rebuilds the current variant in place and leaves any deadlock to the
// recovery supervisor.
// Shape criterion: the control deadlocks and loses strictly more packets
// than the hot-swap cell, which runs the identical workload; the hot-swap
// cell drains with zero recoveries; every committed swap carries acyclicity
// certificates for its static and its union graph; and the cyclic cell
// falls back exactly once, hot-swaps nothing, drains, and pins a concrete
// cycle witness both for the refused separate-scheme recompile and for the
// cyclic transition union.
func runDR1(r *Report, opt Options) error {
	rows := dr1Rows()
	evs := make([][]reconfig.Event, len(rows))
	cells, err := sweepRows(opt, rows, func(i int, s *campaign.Spec) {
		s.OnReconfig = func(ev reconfig.Event) { evs[i] = append(evs[i], ev) }
	})
	if err != nil {
		return err
	}

	tbl := stats.NewTable("DR1 mid-run Fig. 9 fault: PR 5 purge-and-retransmit vs online reconfiguration",
		"strategy", "outcome", "end cycle", "recoveries", "swaps", "fellback", "victims", "delivered", "bcopies", "lost")
	for i, c := range cells {
		tbl.AddRow(append(rows[i].label, cellOutcome(c), c.EndCycle, c.Recoveries, c.Reconfigured,
			c.ReconfigFellBack, c.Stats.Victims, c.Delivered, c.BroadcastCopies, packetsLost(c))...)
	}
	r.Tables = append(r.Tables, tbl)

	control, hot, cyclic := cells[0], cells[1], cells[2]
	certified := true
	refusalPinned, unionPinned := false, false
	for _, rowEvs := range evs[1:] {
		for _, ev := range rowEvs {
			r.Notef("%s", ev)
			if ev.Outcome == reconfig.OutcomeHotSwap && !(ev.Candidate.Acyclic && ev.Union.Acyclic) {
				certified = false
			}
			if len(ev.Union.Cycle) > 0 {
				unionPinned = true
				r.Notef("union witness: %s", strings.Join(ev.Union.Cycle, " -> "))
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
		hot.Drained && hot.Recoveries == 0 && hot.Reconfigured == 1 &&
		cyclic.Drained && !cyclic.Livelocked && cyclic.Reconfigured == 0 && cyclic.ReconfigFellBack == 1 &&
		packetsLost(hot) < packetsLost(control) &&
		certified && refusalPinned && unionPinned
	r.Notef("purge-and-retransmit: deadlock in the unprotected swap window, %d sacrifice(s), %d packet(s) lost, drained at cycle %d",
		control.Stats.Victims, packetsLost(control), control.EndCycle)
	r.Notef("hot swap: %d packet(s) lost, zero recoveries, drained at cycle %d — the certified transition never exposes the deadlocking window",
		packetsLost(hot), hot.EndCycle)
	r.Notef("cyclic union: rebuilt in place under recovery, %d sacrifice(s), %d packet(s) lost, drained at cycle %d",
		cyclic.Stats.Victims, packetsLost(cyclic), cyclic.EndCycle)
	return nil
}

// runDR2 reruns the R2 second-fault sweep with reconfiguration triggered by
// both mid-run faults and confirmed deadlocks, against the PR 5
// purge-and-retransmit control. Shape criterion: the reconfigured sweep
// commits at least one swap, every committed swap certified (static and
// union graph acyclic); it sacrifices no more packets and loses no more
// terminally than the control; and both sweeps stay as clean as R2 demands —
// zero wedges, zero livelocks, refusals exactly as reachability predicts,
// no undocumented losses.
func runDR2(r *Report, opt Options) error {
	control, err := runCampaign(opt, r2(opt))
	if err != nil {
		return err
	}
	t := r2(opt)
	t.Reconfig.Mode = core.ReconfigBoth
	cfg, err := t.Config()
	if err != nil {
		return err
	}
	cfg.Parallel, cfg.Ctx, cfg.Budget, cfg.OnCell = opt.Parallel, opt.Ctx, opt.Budget, opt.OnCell
	var uncertified atomic.Int64 // events arrive from the sweep's workers
	cfg.OnReconfig = func(ev reconfig.Event) {
		if ev.Outcome == reconfig.OutcomeHotSwap && !(ev.Candidate.Acyclic && ev.Union.Acyclic) {
			uncertified.Add(1)
		}
	}
	recfg, err := campaign.Run(cfg)
	if err != nil {
		return err
	}
	ca, ra := auditMap(control), auditMap(recfg)

	tbl := stats.NewTable("DR2 second-fault sweep: PR 5 purge-and-retransmit vs reconfig mode=both",
		"strategy", "cells", "recoveries", "swaps", "fellback", "wedged", "undocumented", "sacrificed", "lost", "total cycles")
	tbl.AddRow("purge-and-retransmit", len(control.Cells), control.Recoveries(), 0, 0,
		ca.deadlocks+ca.stalls, ca.undocumented, ca.sacrificed, ca.lost, ca.cycles)
	tbl.AddRow("reconfig both", len(recfg.Cells), recfg.Recoveries(), recfg.Reconfigured(), recfg.ReconfigFellBack(),
		ra.deadlocks+ra.stalls, ra.undocumented, ra.sacrificed, ra.lost, ra.cycles)
	r.Tables = append(r.Tables, tbl)

	r.Pass = recfg.Reconfigured() > 0 && uncertified.Load() == 0 &&
		ra.sacrificed <= ca.sacrificed && ra.lost <= ca.lost &&
		recfg.Livelocked() == 0 && ra.clean() && control.Livelocked() == 0 && ca.clean()
	r.Notef("%d cells per strategy: reconfiguration commits %d certified swap(s) and falls back %d time(s); recoveries %d -> %d",
		len(recfg.Cells), recfg.Reconfigured(), recfg.ReconfigFellBack(), control.Recoveries(), recfg.Recoveries())
	r.Notef("sacrificed packets %d -> %d, terminal losses %d -> %d, total drain cycles %d -> %d",
		ca.sacrificed, ra.sacrificed, ca.lost, ra.lost, ca.cycles, ra.cycles)
	return nil
}
