package campaign

// A completed cell's verdict serializes on its own, so a campaign's finished
// cells survive a crash without re-running. It rides the
// internal/checkpoint container format.

import (
	"fmt"

	"sr2201/internal/checkpoint"
	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
)

const secCellResult = "campaign.result"

// resultVersion is the oldest container version whose campaign.result
// section this build reads.
const resultVersion = 7

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
	e.Bool(res.ReconfigEnabled)
	e.Int(int64(res.Reconfigured))
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
	if v := d.Version(); v < resultVersion {
		// Version 5 and older laid out a drain count between the swap and
		// fallback counts; a cell stored under them re-runs.
		return res, fmt.Errorf("checkpoint: section %q: version %d predates this layout (version %d); the cell re-runs", secCellResult, v, resultVersion)
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
	res.ReconfigEnabled = d.Bool()
	res.Reconfigured = d.IntAsInt()
	res.ReconfigFellBack = d.IntAsInt()
	if err := d.Finish(); err != nil {
		return res, err
	}
	return res, nil
}
