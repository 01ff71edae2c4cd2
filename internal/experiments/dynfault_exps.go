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
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
	"sr2201/internal/stats"
)

func init() {
	register(Experiment{ID: "F1", Title: "Mid-run RTC fault: drop, detour and recovery curve", Paper: "Sec. 4 extension", run: runF1})
	register(Experiment{ID: "F2", Title: "Exhaustive single-fault availability map", Paper: "Sec. 4 extension", run: runF2})
	register(Experiment{ID: "F3", Title: "Retransmission closes the loss gap", Paper: "Sec. 4 extension", run: runF3})
}

// f1Spec is the shared mid-run-fault scenario: a router dies at cycle 8,
// while the first wave's packets are crossing it, with more waves to come.
func f1Spec(quick bool, retransmit bool) campaign.Spec {
	shape := geom.MustShape(8, 8)
	victim := geom.Coord{4, 4}
	pattern := campaign.Shift(9)
	waves := 8
	if quick {
		shape = geom.MustShape(4, 4)
		victim = geom.Coord{2, 1}
		pattern = campaign.Shift(5)
		waves = 4
	}
	return campaign.Spec{
		Shape:   shape,
		Events:  []inject.Event{{Cycle: 8, Fault: fault.RouterFault(victim)}},
		Pattern: pattern,
		Waves:   waves,
		Gap:     32,
		Inject: inject.Options{
			Retransmit:     retransmit,
			RetryAfter:     32,
			StallThreshold: 256,
		},
	}
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
	spec := f1Spec(opt.Quick, true)
	spec.KeepDeliveries = true
	res, err := campaign.RunCell(spec)
	if err != nil {
		return err
	}

	type win struct {
		delivered, detoured    int
		sumLatency, maxLatency int64
	}
	wins := map[int64]*win{}
	var last int64
	for _, d := range res.Deliveries {
		i := d.Cycle / spec.Gap
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
		fmt.Sprintf("F1 recovery curve on %v (%s dies at cycle %d)", spec.Shape, res.Fault, res.Epoch),
		"cycles", "delivered", "detoured", "mean latency", "max latency")
	detoured := 0
	for i := int64(0); i <= last; i++ {
		w := wins[i]
		if w == nil {
			continue
		}
		detoured += w.detoured
		tbl.AddRow(fmt.Sprintf("%d-%d", i*spec.Gap, (i+1)*spec.Gap-1),
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

// faultMapConfig is the exhaustive single-fault campaign every
// availability-map experiment (F2, V3, V4, H1, H2) runs — every placement ×
// injection epoch × traffic pattern, four waves, retransmission on — at the
// experiment's own scale: the full and -quick shapes and the stride of the
// shift pattern at each.
func faultMapConfig(opt Options, full, quick geom.Shape, shift, quickShift int) campaign.Config {
	cfg := campaign.Config{
		Shape:    full,
		Epochs:   []int64{8, 40},
		Patterns: []campaign.Pattern{campaign.Shift(shift), campaign.Reverse()},
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
		cfg.Shape = quick
		cfg.Epochs = []int64{12}
		cfg.Patterns = []campaign.Pattern{campaign.Shift(quickShift)}
	}
	return cfg
}

// mapAudit counts the cells of a single-fault map that break its shape
// criterion: cells that did not drain, cells whose refusals differ from the
// static post-fault prediction, and cells with a loss that is not a
// documented one (with retransmission on, the only final losses allowed are
// unreachable destinations).
type mapAudit struct {
	deadlocks, stalls                    int
	undrained, unpredicted, undocumented int
	// refused totals the refusals across the map (reported, not judged).
	refused int
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
			st.DropsOther != 0 || c.Delivered+finalLosses(st) != c.Accepted {
			a.undocumented++
		}
		a.refused += c.Refused
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
	res, err := campaign.Run(faultMapConfig(opt, geom.MustShape(8, 8), geom.MustShape(4, 4), 9, 5))
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
	type run struct {
		res campaign.CellResult
		gap int
	}
	var runs [2]run
	for i, retransmit := range []bool{false, true} {
		res, err := campaign.RunCell(f1Spec(opt.Quick, retransmit))
		if err != nil {
			return err
		}
		st := res.Stats
		gap := res.Accepted - res.Delivered - st.LostUnreachable
		runs[i] = run{res: res, gap: gap}
		tbl.AddRow(fmt.Sprintf("%v", retransmit), res.Accepted, res.Delivered,
			st.KilledInFlight+st.DropsEnRoute, st.Retransmits, st.Recovered,
			st.LostUnreachable, gap, res.Availability())
	}
	r.Tables = append(r.Tables, tbl)

	off, on := runs[0], runs[1]
	pass := off.res.Drained && on.res.Drained &&
		!off.res.Deadlocked && !on.res.Deadlocked &&
		off.gap > 0 && on.gap == 0 &&
		on.res.Stats.Recovered > 0 && on.res.Stats.Duplicates == 0 &&
		on.res.Accepted == off.res.Accepted &&
		on.res.Availability() > off.res.Availability()
	r.Pass = pass
	r.Notef("retransmission recovers %d of the %d in-flight kills; the rest are destinations the fault bits rule out",
		on.res.Stats.Recovered, on.res.Stats.KilledInFlight+on.res.Stats.DropsEnRoute)
	return nil
}
