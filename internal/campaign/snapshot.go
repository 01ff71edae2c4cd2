package campaign

// Checkpoint support for campaign cells: a CellRun serializes its machine,
// injector, watchdog and wave-loop counters into one container (a SingleRun
// adds its print cursors), and a CellResult serializes on its own so
// completed cells survive a crash without re-running. All ride the
// internal/checkpoint container format.

import (
	"fmt"

	"sr2201/internal/checkpoint"
	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
	"sr2201/internal/reconfig"
	"sr2201/internal/recovery"
)

const (
	secCell       = "campaign.cell"
	secCellResult = "campaign.result"
	secSingle     = "campaign.single"
)

// Snapshot serializes the run into one container: the cell's sections plus
// the renderer's three print cursors (the campaign.single layout of format
// version 4; earlier versions carried a private copy of the loop state).
func (r *SingleRun) Snapshot() []byte {
	w := checkpoint.NewWriter()
	r.c.EncodeState(w)
	e := w.Section(secSingle)
	e.Int(int64(r.reported))
	e.Int(int64(r.reportedRecov))
	e.Int(int64(r.reportedReconfig))
	return w.Bytes()
}

// Restore replaces the run's state with a container produced by Snapshot on
// a run built from the same Spec, then re-renders the already-reported
// casualty lines so the output stream continues byte-identically to the
// uninterrupted run. Call immediately after NewSingleRun (which printed the
// preamble), before any Step.
func (r *SingleRun) Restore(data []byte) error {
	rd, err := checkpoint.NewReader(data)
	if err != nil {
		return err
	}
	if rd.Version() < 4 {
		return fmt.Errorf("checkpoint: section %q: format version %d predates the single-run layout of version 4", secSingle, rd.Version())
	}
	if err := r.c.DecodeState(rd); err != nil {
		return err
	}
	d, err := rd.Section(secSingle)
	if err != nil {
		return err
	}
	reported := d.IntAsInt()
	reportedRecov := d.IntAsInt()
	reportedReconfig := d.IntAsInt()
	if err := d.Finish(); err != nil {
		return err
	}
	cas := r.c.inj.Casualties()
	var evs []recovery.Event
	if r.c.sup != nil {
		evs = r.c.sup.Events()
	}
	var rcs []reconfig.Event
	if r.c.mgr != nil {
		rcs = r.c.mgr.Events()
	}
	if reported < 0 || reported > len(cas) {
		return fmt.Errorf("checkpoint: section %q: reported %d outside casualty list of %d", secSingle, reported, len(cas))
	}
	if reportedRecov < 0 || reportedRecov > len(evs) {
		return fmt.Errorf("checkpoint: section %q: reported recoveries %d outside event list of %d", secSingle, reportedRecov, len(evs))
	}
	if reportedReconfig < 0 || reportedReconfig > len(rcs) {
		return fmt.Errorf("checkpoint: section %q: reported reconfigurations %d outside event list of %d", secSingle, reportedReconfig, len(rcs))
	}
	cas, evs, rcs = cas[:reported], evs[:reportedRecov], rcs[:reportedReconfig]
	// Re-render the already-reported casualty, recovery and reconfiguration
	// lines in the order the uninterrupted run printed them. Each line class
	// prints at a known point of a known step: a recovery at engine cycle rc
	// prints *during* the step that ends at rc; a casualty recorded at cycle
	// cc prints at the end of the step that advanced cc -> cc+1; a
	// reconfiguration prints at the end of its trigger's step — the fault
	// trigger fires in PreCycle (event cycle X, step X -> X+1), the deadlock
	// trigger in PostCycle (event cycle X, step X-1 -> X). Sorting by
	// (step-end cycle, within-step position) reproduces the stream; each
	// source list is already chronological, so the merge is stable.
	//
	// Within-step print order: recovery (during the step) = 0, casualty
	// loop = 1, reconfiguration loop = 2.
	recovKey := func(ev recovery.Event) [2]int64 { return [2]int64{ev.Cycle, 0} }
	casKey := func(c inject.Casualty) [2]int64 { return [2]int64{c.Cycle + 1, 1} }
	reconfigKey := func(ev reconfig.Event) [2]int64 {
		end := ev.Cycle
		if ev.Trigger == reconfig.TriggerFault {
			end++
		}
		return [2]int64{end, 2}
	}
	less := func(a, b [2]int64) bool { return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]) }
	r.reported, r.reportedRecov, r.reportedReconfig = 0, 0, 0
	for len(cas) > 0 || len(evs) > 0 || len(rcs) > 0 {
		best := 0 // 0 = recovery, 1 = casualty, 2 = reconfig
		var key [2]int64
		have := false
		if len(evs) > 0 {
			key, have = recovKey(evs[0]), true
		}
		if len(cas) > 0 && (!have || less(casKey(cas[0]), key)) {
			best, key, have = 1, casKey(cas[0]), true
		}
		if len(rcs) > 0 && (!have || less(reconfigKey(rcs[0]), key)) {
			best = 2
		}
		switch best {
		case 0:
			fmt.Fprintf(r.w, "%s\n", evs[0])
			evs = evs[1:]
			r.reportedRecov++
		case 1:
			r.printCasualty(cas[0])
			cas = cas[1:]
			r.reported++
		default:
			r.printReconfig(rcs[0])
			rcs = rcs[1:]
			r.reportedReconfig++
		}
	}
	return nil
}

// workloadHash digests the preset faults and the broadcast schedule, the
// spec inputs no other fingerprint covers (the machine hashes its config,
// the injector its event schedule).
func workloadHash(preset []fault.Fault, bcasts []Broadcast) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v int64) {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= prime
			u >>= 8
		}
	}
	mix(int64(len(preset)))
	for _, f := range preset {
		mix(int64(f.Kind))
		for _, v := range f.Coord {
			mix(int64(v))
		}
		mix(int64(f.Line.Dim))
		for _, v := range f.Line.Fixed {
			mix(int64(v))
		}
		if f.Kind == fault.KindLink {
			for _, v := range f.To {
				mix(int64(v))
			}
		}
	}
	mix(int64(len(bcasts)))
	for _, b := range bcasts {
		mix(b.Cycle)
		for _, v := range b.Src {
			mix(int64(v))
		}
		mix(int64(b.Size))
	}
	return h
}

// EncodeState appends the cell's loop state plus its machine's, injector's
// and watchdog's sections.
func (c *CellRun) EncodeState(w *checkpoint.Writer) {
	c.m.EncodeState(w)
	c.inj.EncodeState(w)
	e := w.Section(secCell)
	// Spec guard: the machine and injector carry their own fingerprints;
	// these cover the wave-loop knobs they cannot see.
	e.Uint(workloadHash(c.spec.Preset, c.spec.Broadcasts))
	e.String(c.spec.Pattern.Name)
	e.Int(int64(c.spec.Waves))
	e.Int(c.spec.Gap)
	e.Int(c.spec.Horizon)
	e.Bool(c.spec.KeepDeliveries)
	c.wd.EncodeState(e)
	e.Int(int64(c.wave))
	e.Int(int64(c.bNext))
	e.Bool(c.done)
	for _, v := range []int{
		c.res.Offered, c.res.Accepted, c.res.Refused, c.res.RefusedOther,
		c.res.WavesAfterFault, c.res.Broadcasts, c.res.BroadcastsRefused,
		c.res.BroadcastCopiesExpected,
	} {
		e.Int(int64(v))
	}
	e.Bool(c.res.Stalled)
	e.Bool(c.res.Deadlocked)
	e.Bool(c.res.Livelocked)
	if c.sup != nil {
		c.sup.EncodeState(w)
	}
	if c.mgr != nil {
		c.mgr.EncodeState(w)
	}
}

// Snapshot serializes the cell into one container.
func (c *CellRun) Snapshot() []byte {
	w := checkpoint.NewWriter()
	c.EncodeState(w)
	return w.Bytes()
}

// DecodeState restores a container written by EncodeState into this cell,
// which must have been built with NewCellRun on the same Spec.
func (c *CellRun) DecodeState(r *checkpoint.Reader) error {
	if err := c.m.DecodeState(r); err != nil {
		return err
	}
	if err := c.inj.DecodeState(r); err != nil {
		return err
	}
	d, err := r.Section(secCell)
	if err != nil {
		return err
	}
	if got, want := d.Uint(), workloadHash(c.spec.Preset, c.spec.Broadcasts); d.Err() == nil && got != want {
		return fmt.Errorf("checkpoint: section %q: workload fingerprint %016x does not match this cell's %016x", secCell, got, want)
	}
	if name := d.String(); d.Err() == nil && name != c.spec.Pattern.Name {
		return fmt.Errorf("checkpoint: section %q: pattern %q does not match this cell's %q", secCell, name, c.spec.Pattern.Name)
	}
	d.Expect(int64(c.spec.Waves), "cell waves")
	d.Expect(c.spec.Gap, "cell gap")
	d.Expect(c.spec.Horizon, "cell horizon")
	if keep := d.Bool(); d.Err() == nil && keep != c.spec.KeepDeliveries {
		return fmt.Errorf("checkpoint: section %q: KeepDeliveries %v does not match this cell's %v", secCell, keep, c.spec.KeepDeliveries)
	}
	c.wd.DecodeState(d)
	wave := d.IntAsInt()
	bNext := d.IntAsInt()
	done := d.Bool()
	var counters [8]int
	for i := range counters {
		counters[i] = d.IntAsInt()
	}
	stalled := d.Bool()
	deadlocked := d.Bool()
	livelocked := d.Bool()
	if err := d.Finish(); err != nil {
		return err
	}
	if wave < 0 || wave > c.spec.Waves {
		return fmt.Errorf("checkpoint: section %q: wave %d outside [0,%d]", secCell, wave, c.spec.Waves)
	}
	if bNext < 0 || bNext > len(c.spec.Broadcasts) {
		return fmt.Errorf("checkpoint: section %q: broadcast index %d outside schedule of %d", secCell, bNext, len(c.spec.Broadcasts))
	}
	if c.sup != nil {
		if err := c.sup.DecodeState(r); err != nil {
			return err
		}
	}
	if c.mgr != nil {
		if err := c.mgr.DecodeState(r); err != nil {
			return err
		}
	}
	c.wave = wave
	c.bNext = bNext
	c.done = done
	c.res.Offered = counters[0]
	c.res.Accepted = counters[1]
	c.res.Refused = counters[2]
	c.res.RefusedOther = counters[3]
	c.res.WavesAfterFault = counters[4]
	c.res.Broadcasts = counters[5]
	c.res.BroadcastsRefused = counters[6]
	c.res.BroadcastCopiesExpected = counters[7]
	c.res.Stalled = stalled
	c.res.Deadlocked = deadlocked
	c.res.Livelocked = livelocked
	return nil
}

// Restore replaces the cell's state with a container produced by Snapshot
// on a cell built from the same Spec.
func (c *CellRun) Restore(data []byte) error {
	r, err := checkpoint.NewReader(data)
	if err != nil {
		return err
	}
	return c.DecodeState(r)
}

// EncodeResult serializes one completed cell verdict into its own container
// (the Store's cell-NNNN.result files).
func EncodeResult(res CellResult) []byte {
	w := checkpoint.NewWriter()
	e := w.Section(secCellResult)
	fault.EncodeFault(e, res.Fault)
	e.Int(res.Epoch)
	e.String(res.Pattern)
	for _, v := range []int{
		res.Offered, res.Accepted, res.Refused, res.RefusedOther,
		res.Delivered, res.PredictedUnreachablePerWave, res.WavesAfterFault,
		res.Broadcasts, res.BroadcastsRefused, res.BroadcastCopiesExpected,
		res.BroadcastCopies, res.Recoveries,
		res.SourceDeadPairs, res.DestDeadPairs, res.UnreachablePairs,
	} {
		e.Int(int64(v))
	}
	for _, v := range []int{
		res.Stats.EventsApplied, res.Stats.KilledInFlight, res.Stats.DropsEnRoute,
		res.Stats.DropsOther, res.Stats.Retransmits, res.Stats.Recovered,
		res.Stats.Duplicates, res.Stats.LostUnreachable, res.Stats.LostExhausted,
		res.Stats.LostUntraceable, res.Stats.Victims,
	} {
		e.Int(int64(v))
	}
	e.Bool(res.UnreachableAsPredicted)
	e.Bool(res.Drained)
	e.Bool(res.Stalled)
	e.Bool(res.Deadlocked)
	e.Bool(res.Livelocked)
	e.Int(res.EndCycle)
	e.Uint(uint64(len(res.Deliveries)))
	for _, d := range res.Deliveries {
		e.Uint(d.PacketID)
		geom.EncodeCoord(e, d.Src)
		geom.EncodeCoord(e, d.At)
		e.Bool(d.Broadcast)
		e.Bool(d.Detoured)
		e.Int(d.Cycle)
		e.Int(d.Latency)
	}
	// Appended in format version 3.
	e.Bool(res.ReconfigEnabled)
	e.Int(int64(res.Reconfigured))
	e.Int(int64(res.ReconfigDrained))
	e.Int(int64(res.ReconfigFellBack))
	return w.Bytes()
}

// DecodeResult reads a container written by EncodeResult.
func DecodeResult(data []byte) (CellResult, error) {
	var res CellResult
	r, err := checkpoint.NewReader(data)
	if err != nil {
		return res, err
	}
	d, err := r.Section(secCellResult)
	if err != nil {
		return res, err
	}
	res.Fault = fault.DecodeFault(d)
	res.Epoch = d.Int()
	res.Pattern = d.String()
	for _, p := range []*int{
		&res.Offered, &res.Accepted, &res.Refused, &res.RefusedOther,
		&res.Delivered, &res.PredictedUnreachablePerWave, &res.WavesAfterFault,
		&res.Broadcasts, &res.BroadcastsRefused, &res.BroadcastCopiesExpected,
		&res.BroadcastCopies, &res.Recoveries,
		&res.SourceDeadPairs, &res.DestDeadPairs, &res.UnreachablePairs,
	} {
		*p = d.IntAsInt()
	}
	for _, p := range []*int{
		&res.Stats.EventsApplied, &res.Stats.KilledInFlight, &res.Stats.DropsEnRoute,
		&res.Stats.DropsOther, &res.Stats.Retransmits, &res.Stats.Recovered,
		&res.Stats.Duplicates, &res.Stats.LostUnreachable, &res.Stats.LostExhausted,
		&res.Stats.LostUntraceable, &res.Stats.Victims,
	} {
		*p = d.IntAsInt()
	}
	res.UnreachableAsPredicted = d.Bool()
	res.Drained = d.Bool()
	res.Stalled = d.Bool()
	res.Deadlocked = d.Bool()
	res.Livelocked = d.Bool()
	res.EndCycle = d.Int()
	n := d.Len(8)
	for i := 0; i < n; i++ {
		var del core.Delivery
		del.PacketID = d.Uint()
		del.Src = geom.DecodeCoord(d)
		del.At = geom.DecodeCoord(d)
		del.Broadcast = d.Bool()
		del.Detoured = d.Bool()
		del.Cycle = d.Int()
		del.Latency = d.Int()
		res.Deliveries = append(res.Deliveries, del)
	}
	if d.Version() >= 3 {
		res.ReconfigEnabled = d.Bool()
		res.Reconfigured = d.IntAsInt()
		res.ReconfigDrained = d.IntAsInt()
		res.ReconfigFellBack = d.IntAsInt()
	}
	if err := d.Finish(); err != nil {
		return res, err
	}
	return res, nil
}
