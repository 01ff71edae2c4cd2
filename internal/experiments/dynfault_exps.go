package experiments

// F-series: dynamic-fault experiments. The paper's facility handles a fault
// detected at boot (Sec. 4); these experiments extend the reproduction to
// faults that activate mid-run — in-flight flits at the dead switch are
// dropped, upstream packets detour with RC=3, and sources optionally
// retransmit — and verify the network recovers without deadlock and without
// losing anything beyond the documented unreachable destinations.

import (
	"fmt"

	"sr2201/internal/campaign"
	"sr2201/internal/inject"
	"sr2201/internal/stats"
)

func init() {
	register(Experiment{ID: "F1", Title: "Mid-run RTC fault: drop, detour and recovery curve", Paper: "Sec. 4 extension", run: runF1})
	register(Experiment{ID: "F2", Title: "Exhaustive single-fault availability map", Paper: "Sec. 4 extension", run: runF2})
	register(Experiment{ID: "F3", Title: "Retransmission closes the loss gap", Paper: "Sec. 4 extension", run: runF3})
}

// f1 is the shared mid-run-fault scenario: a router dies at cycle 8, while
// the first wave's packets are crossing it, with more waves to come.
func f1(quick, retransmit bool) campaign.RunText {
	t := campaign.RunText{
		Shape:    "8x8",
		Fails:    []string{"rtc:4,4@8"},
		Patterns: []string{"shift+9"},
		Waves:    8,
		Gap:      32,
		Inject:   inject.Options{Retransmit: retransmit, RetryAfter: 32, StallThreshold: 256},
	}
	if quick {
		t.Shape, t.Fails, t.Patterns, t.Waves = "4x4", []string{"rtc:2,1@8"}, []string{"shift+5"}, 4
	}
	return t
}

// finalLosses sums the loss buckets that end a packet's story.
func finalLosses(st inject.Stats) int {
	return st.LostUnreachable + st.LostExhausted + st.LostUntraceable + st.DropsOther
}

// runF1 drives the shared scenario with retransmission and renders the
// recovery curve: deliveries bucketed into gap-sized cycle windows, with
// detour counts and latency. Shape criterion: the run drains with no
// deadlock, some packets detour (RC=3) around the dead router, the killed
// in-flight packets with live destinations are recovered exactly once, and
// nothing is lost beyond the documented unreachable destinations.
func runF1(r *Report, opt Options) error {
	t := f1(opt.Quick, true)
	cells, err := sweepRows(opt, []row{{nil, t}}, nil)
	if err != nil {
		return err
	}
	res := cells[0]

	type win struct {
		delivered, detoured    int
		sumLatency, maxLatency int64
	}
	wins := map[int64]*win{}
	var last int64
	for _, d := range res.Deliveries {
		i := d.Cycle / t.Gap
		w := wins[i]
		if w == nil {
			w = &win{}
			wins[i] = w
		}
		w.delivered++
		if d.Detoured {
			w.detoured++
		}
		w.sumLatency += d.Latency
		if d.Latency > w.maxLatency {
			w.maxLatency = d.Latency
		}
		if i > last {
			last = i
		}
	}
	tbl := stats.NewTable(
		fmt.Sprintf("F1 recovery curve on %s (%s dies at cycle %d)", t.Shape, res.Fault, res.Epoch),
		"cycles", "delivered", "detoured", "mean latency", "max latency")
	detoured := 0
	for i := int64(0); i <= last; i++ {
		w := wins[i]
		if w == nil {
			continue
		}
		detoured += w.detoured
		tbl.AddRow(fmt.Sprintf("%d-%d", i*t.Gap, (i+1)*t.Gap-1),
			w.delivered, w.detoured,
			float64(w.sumLatency)/float64(w.delivered), w.maxLatency)
	}
	r.Tables = append(r.Tables, tbl)

	st := res.Stats
	pass := res.Drained && !res.Deadlocked && !res.Stalled &&
		res.UnreachableAsPredicted &&
		st.KilledInFlight+st.DropsEnRoute > 0 &&
		st.Recovered > 0 && st.Duplicates == 0 &&
		detoured > 0 &&
		res.Delivered+finalLosses(st) == res.Accepted &&
		st.LostExhausted == 0 && st.LostUntraceable == 0 && st.DropsOther == 0
	r.Pass = pass
	r.Notef("accepted %d, delivered %d, killed in flight %d, detoured deliveries %d",
		res.Accepted, res.Delivered, st.KilledInFlight+st.DropsEnRoute, detoured)
	r.Notef("retransmits %d recovered %d duplicates %d; unreachable losses %d (predicted %d/wave x %d waves)",
		st.Retransmits, st.Recovered, st.Duplicates, st.LostUnreachable,
		res.PredictedUnreachablePerWave, res.WavesAfterFault)
	return nil
}

// faultMap is the exhaustive single-fault campaign every availability-map
// experiment (F2, V3, V4, H1, H2) runs — every placement × injection epoch
// × traffic pattern, four waves, retransmission on — at the experiment's
// own scale: the full and -quick shapes and the stride of the shift pattern
// at each.
func faultMap(opt Options, full, quick string, shift, quickShift int) campaign.RunText {
	t := campaign.RunText{
		Shape:    full,
		Epochs:   []int64{8, 40},
		Patterns: []string{fmt.Sprintf("shift+%d", shift), "reverse"},
		Waves:    4,
		Gap:      24,
		Inject:   inject.Options{Retransmit: true, RetryAfter: 24, StallThreshold: 256},
	}
	if opt.Quick {
		t.Shape, t.Epochs, t.Patterns = quick, []int64{12}, []string{fmt.Sprintf("shift+%d", quickShift)}
	}
	return t
}

// mapAudit counts the cells of a single-fault map that break its shape
// criterion: cells that wedged or did not drain, cells whose refusals
// differ from the static post-fault prediction, and cells with a loss that
// is not a documented one. A documented loss is a unicast to a destination
// the faults rule out, or a broadcast copy the fault dropped: a duplicate,
// an exhausted or untraceable loss, more broadcast copies plus drops than
// owed, or unicasts neither delivered nor lost unreachable are not.
type mapAudit struct {
	deadlocks, stalls                    int
	undrained, unpredicted, undocumented int
	// refused, the per-pair classification, sacrificed and lost are totals
	// across the map (reported, not judged); sacrificed counts recovery
	// victims, lost the final losses.
	refused, srcDead, dstDead, unreach int
	sacrificed, lost                   int
	// cycles totals the cells' end cycles.
	cycles int64
}

func auditMap(res *campaign.Result) mapAudit {
	a := mapAudit{deadlocks: res.Deadlocks(), stalls: res.Stalls()}
	for _, c := range res.Cells {
		if !c.Drained {
			a.undrained++
		}
		if !c.UnreachableAsPredicted {
			a.unpredicted++
		}
		st := c.Stats
		if st.Duplicates != 0 || st.LostExhausted != 0 || st.LostUntraceable != 0 ||
			c.BroadcastCopies+st.DropsOther > c.BroadcastCopiesExpected ||
			c.Delivered+st.LostUnreachable != c.Accepted {
			a.undocumented++
		}
		a.refused += c.Refused
		a.srcDead += c.SourceDeadPairs
		a.dstDead += c.DestDeadPairs
		a.unreach += c.UnreachablePairs
		a.sacrificed += st.Victims
		a.lost += finalLosses(st)
		a.cycles += c.EndCycle
	}
	return a
}

// clean reports whether the map met the criterion.
func (a mapAudit) clean() bool {
	return a.deadlocks+a.stalls+a.undrained+a.unpredicted+a.undocumented == 0
}

// runF2 runs the exhaustive single-fault campaign: every placement (all
// routers, all crossbar lines) × injection epoch × traffic pattern. Shape
// criterion: zero deadlocks, zero stalls, every cell drains, every refusal
// matches the static post-fault prediction, and with retransmission enabled
// the only final losses are the documented unreachable destinations.
func runF2(r *Report, opt Options) error {
	res, err := runCampaign(opt, faultMap(opt, "8x8", "4x4", 9, 5))
	if err != nil {
		return err
	}
	r.Tables = append(r.Tables, res.Table())
	a := auditMap(res)
	r.Pass = a.clean()
	r.Notef("%d cells: deadlocks %d, stalls %d, undrained %d, refusals off-prediction %d, undocumented losses %d",
		len(res.Cells), a.deadlocks, a.stalls, a.undrained, a.unpredicted, a.undocumented)
	r.Notef("every loss is a documented ErrUnreachable refusal or an in-flight kill whose destination the fault bits rule out")
	return nil
}

// runF3 contrasts the shared scenario with retransmission off and on. Shape
// criterion: without retransmission the in-flight kills leave a delivery gap
// beyond the unreachable losses; with it the gap closes exactly — delivered
// equals accepted minus the documented unreachable losses, with zero
// duplicates.
func runF3(r *Report, opt Options) error {
	tbl := stats.NewTable("F3 loss accounting, retransmission off vs on",
		"retransmit", "accepted", "delivered", "killed", "retx", "recovered",
		"lost-unreach", "gap", "availability")
	rows := []row{{[]any{"false"}, f1(opt.Quick, false)}, {[]any{"true"}, f1(opt.Quick, true)}}
	cells, err := sweepRows(opt, rows, nil)
	if err != nil {
		return err
	}
	gap := func(c campaign.CellResult) int { return c.Accepted - c.Delivered - c.Stats.LostUnreachable }
	for i, c := range cells {
		st := c.Stats
		tbl.AddRow(append(rows[i].label, c.Accepted, c.Delivered,
			st.KilledInFlight+st.DropsEnRoute, st.Retransmits, st.Recovered,
			st.LostUnreachable, gap(c), c.Availability())...)
	}
	r.Tables = append(r.Tables, tbl)

	off, on := cells[0], cells[1]
	r.Pass = off.Drained && on.Drained &&
		!off.Deadlocked && !on.Deadlocked &&
		gap(off) > 0 && gap(on) == 0 &&
		on.Stats.Recovered > 0 && on.Stats.Duplicates == 0 &&
		on.Accepted == off.Accepted &&
		on.Availability() > off.Availability()
	r.Notef("retransmission recovers %d of the %d in-flight kills; the rest are destinations the fault bits rule out",
		on.Stats.Recovered, on.Stats.KilledInFlight+on.Stats.DropsEnRoute)
	return nil
}
