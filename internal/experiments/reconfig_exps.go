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
	// transition union is cyclic and must drain. The pair is shifted to
	// (0,0)->(3,3) — a path that avoids the dying router — because an
	// in-flight packet the fault itself kills never reaches the
	// admissibility check; the inadmissible window needs survivors of both
	// traffic classes.
	drain := recovering(failAt(fig9(), 8))
	drain.Waves, drain.Gap, drain.Patterns = 2, 48, []string{"pair:0,0>3,3"}
	drain.Reconfig.Mode = core.ReconfigOnFault
	return []row{
		{[]any{"purge-and-retransmit"}, control},
		{[]any{"reconfig, hot swap"}, hot},
		{[]any{"reconfig, drain"}, drain},
	}
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
	rows := dr1Rows()
	evs := make([][]reconfig.Event, len(rows))
	cells, err := sweepRows(opt, rows, func(i int, s *campaign.Spec) {
		s.OnReconfig = func(ev reconfig.Event) { evs[i] = append(evs[i], ev) }
	})
	if err != nil {
		return err
	}

	tbl := stats.NewTable("DR1 mid-run Fig. 9 fault: PR 5 purge-and-retransmit vs online reconfiguration",
		"strategy", "outcome", "end cycle", "recoveries", "swaps", "drained", "victims", "delivered", "bcopies", "lost")
	for i, c := range cells {
		tbl.AddRow(append(rows[i].label, cellOutcome(c), c.EndCycle, c.Recoveries, c.Reconfigured,
			c.ReconfigDrained, c.Stats.Victims, c.Delivered, c.BroadcastCopies, packetsLost(c))...)
	}
	r.Tables = append(r.Tables, tbl)

	control, hot, drain := cells[0], cells[1], cells[2]
	certified := true
	refusalPinned, unionPinned := false, false
	for _, rowEvs := range evs[1:] {
		for _, ev := range rowEvs {
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

// runDR2 reruns the R2 second-fault sweep with reconfiguration triggered by
// both mid-run faults and confirmed deadlocks, against the PR 5
// purge-and-retransmit control. Shape criterion: the reconfigured sweep
// commits at least one swap, never falls back to rebuild-in-place, needs
// strictly fewer recoveries and loses strictly fewer packets than the
// control, and stays as clean as R2 demands — zero wedges, zero livelocks,
// refusals exactly as reachability predicts, no undocumented losses.
func runDR2(r *Report, opt Options) error {
	control, err := runCampaign(opt, r2(opt))
	if err != nil {
		return err
	}
	t := r2(opt)
	t.Reconfig.Mode = core.ReconfigBoth
	recfg, err := runCampaign(opt, t)
	if err != nil {
		return err
	}
	ca, ra := auditMap(control), auditMap(recfg)

	tbl := stats.NewTable("DR2 second-fault sweep: PR 5 purge-and-retransmit vs reconfig mode=both",
		"strategy", "cells", "recoveries", "swaps", "drained", "fellback", "wedged", "undocumented", "sacrificed", "lost", "total cycles")
	tbl.AddRow("purge-and-retransmit", len(control.Cells), control.Recoveries(), 0, 0, 0,
		ca.deadlocks+ca.stalls, ca.undocumented, ca.sacrificed, ca.lost, ca.cycles)
	tbl.AddRow("reconfig both", len(recfg.Cells), recfg.Recoveries(), recfg.Reconfigured(), recfg.ReconfigDrained(), recfg.ReconfigFellBack(),
		ra.deadlocks+ra.stalls, ra.undocumented, ra.sacrificed, ra.lost, ra.cycles)
	r.Tables = append(r.Tables, tbl)

	r.Pass = recfg.Reconfigured() > 0 && recfg.ReconfigFellBack() == 0 &&
		recfg.Recoveries() < control.Recoveries() &&
		recfg.Livelocked() == 0 && ra.clean() && control.Livelocked() == 0 && ca.clean()
	r.Notef("%d cells per strategy: reconfiguration commits %d swap(s) (%d drained packet(s), %d fallback(s)) and cuts recoveries %d -> %d",
		len(recfg.Cells), recfg.Reconfigured(), recfg.ReconfigDrained(), recfg.ReconfigFellBack(), control.Recoveries(), recfg.Recoveries())
	r.Notef("sacrificed packets %d -> %d, terminal losses %d -> %d, total drain cycles %d -> %d",
		ca.sacrificed, ra.sacrificed, ca.lost, ra.lost, ca.cycles, ra.cycles)
	return nil
}
