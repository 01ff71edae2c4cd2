package inject

import (
	"errors"
	"fmt"
	"sort"

	"sr2201/internal/checkpoint"
	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// Injector snapshot/restore. The schedule itself (events, options) is spec,
// not state — a restore target is built with New(machine, sameEvents,
// sameOptions) — but everything the schedule has *done* is state: which
// events fired, the retransmission chains with their shared identity (two
// packet IDs may name the same logical packet), pending resend timers, the
// drop/purge dedup set, accounting, and the per-event casualty records.
//
// Snapshots must be taken between machine Steps, never from inside a hook.

const (
	secInjectMeta       = "inject.meta"
	secInjectChains     = "inject.chains"
	secInjectStats      = "inject.stats"
	secInjectCasualties = "inject.casualties"
)

// scheduleHash digests the (sorted) event list and options so a snapshot
// cannot silently resume under a different schedule.
func (inj *Injector) scheduleHash() uint64 {
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
	mix(int64(len(inj.events)))
	for _, ev := range inj.events {
		mix(ev.Cycle)
		mix(int64(ev.Fault.Kind))
		for _, v := range ev.Fault.Coord {
			mix(int64(v))
		}
		mix(int64(ev.Fault.Line.Dim))
		for _, v := range ev.Fault.Line.Fixed {
			mix(int64(v))
		}
		if ev.Fault.Kind == fault.KindLink {
			for _, v := range ev.Fault.To {
				mix(int64(v))
			}
		}
	}
	mix(boolInt(inj.opt.Retransmit))
	mix(inj.opt.RetryAfter)
	mix(int64(inj.opt.Backoff))
	mix(int64(inj.opt.MaxRetries))
	mix(DefaultMaxRetryAfter)
	mix(inj.opt.StallThreshold)
	return h
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// EncodeState appends the injector's dynamic state to a checkpoint
// container as the "inject.*" sections. It does not encode the machine;
// callers snapshotting a full run encode both into one container.
func (inj *Injector) EncodeState(w *checkpoint.Writer) {
	meta := w.Section(secInjectMeta)
	meta.Uint(inj.scheduleHash())
	meta.Int(int64(inj.next))
	meta.Bool(inj.err != nil)
	if inj.err != nil {
		meta.String(inj.err.Error())
	}

	// Chains are shared objects: number them deterministically (ascending
	// first packet ID that references each chain) and encode the id->chain
	// map and resend timers against those indices.
	ids := make([]uint64, 0, len(inj.chains))
	for id := range inj.chains {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	chainIdx := map[*chain]int{}
	var chains []*chain
	for _, id := range ids {
		ch := inj.chains[id]
		if _, seen := chainIdx[ch]; !seen {
			chainIdx[ch] = len(chains)
			chains = append(chains, ch)
		}
	}
	cs := w.Section(secInjectChains)
	cs.Uint(uint64(len(chains)))
	for _, ch := range chains {
		geom.EncodeCoord(cs, ch.src)
		geom.EncodeCoord(cs, ch.dst)
		cs.Int(int64(ch.size))
		cs.Int(int64(ch.attempts))
		cs.Int(int64(ch.delivered))
		cs.Int(int64(ch.victimized))
	}
	cs.Uint(uint64(len(ids)))
	for _, id := range ids {
		cs.Uint(id)
		cs.Uint(uint64(chainIdx[inj.chains[id]]))
	}
	cs.Uint(uint64(len(inj.pendingResends)))
	for _, rs := range inj.pendingResends {
		cs.Int(rs.due)
		cs.Uint(uint64(chainIdx[rs.ch]))
	}
	handled := make([]uint64, 0, len(inj.handled))
	for id, v := range inj.handled {
		if v {
			handled = append(handled, id)
		}
	}
	sort.Slice(handled, func(i, j int) bool { return handled[i] < handled[j] })
	cs.Uint(uint64(len(handled)))
	for _, id := range handled {
		cs.Uint(id)
	}

	st := w.Section(secInjectStats)
	for _, v := range []int{
		inj.stats.EventsApplied, inj.stats.KilledInFlight, inj.stats.DropsEnRoute,
		inj.stats.DropsOther, inj.stats.Retransmits, inj.stats.Recovered,
		inj.stats.Duplicates, inj.stats.LostUnreachable, inj.stats.LostExhausted,
		inj.stats.LostUntraceable, inj.stats.Victims,
	} {
		st.Int(int64(v))
	}
	st.Int(int64(inj.stats.ReconfigDrained)) // appended in format version 3

	ca := w.Section(secInjectCasualties)
	ca.Uint(uint64(len(inj.casualties)))
	for _, c := range inj.casualties {
		ca.Int(c.Cycle)
		fault.EncodeFault(ca, c.Fault)
		ca.Uint(uint64(len(c.Lost)))
		for _, l := range c.Lost {
			ca.Uint(l.PacketID)
			ca.Bool(l.Known)
			geom.EncodeCoord(ca, l.Src)
			geom.EncodeCoord(ca, l.Dst)
			ca.Byte(byte(l.RC))
			ca.Int(int64(l.Size))
			ca.Bool(l.AlreadyDropped)
		}
	}
}

// DecodeState restores the "inject.*" sections into this injector, which
// must have been built with New against the same events and options. The
// bound machine's state is restored separately (Machine.DecodeState).
func (inj *Injector) DecodeState(r *checkpoint.Reader) error {
	meta, err := r.Section(secInjectMeta)
	if err != nil {
		return err
	}
	if got, want := meta.Uint(), inj.scheduleHash(); meta.Err() == nil && got != want {
		return fmt.Errorf("checkpoint: section %q: schedule fingerprint %016x does not match this injector's %016x", secInjectMeta, got, want)
	}
	next := meta.IntAsInt()
	var injErr error
	if meta.Bool() {
		injErr = errors.New(meta.String())
	}
	if err := meta.Finish(); err != nil {
		return err
	}
	if next < 0 || next > len(inj.events) {
		return fmt.Errorf("checkpoint: section %q: event index %d outside schedule of %d", secInjectMeta, next, len(inj.events))
	}

	cs, err := r.Section(secInjectChains)
	if err != nil {
		return err
	}
	nc := cs.Len(6)
	chains := make([]*chain, 0, nc)
	for i := 0; i < nc; i++ {
		ch := &chain{}
		ch.src = geom.DecodeCoord(cs)
		ch.dst = geom.DecodeCoord(cs)
		ch.size = cs.IntAsInt()
		ch.attempts = cs.IntAsInt()
		ch.delivered = cs.IntAsInt()
		ch.victimized = cs.IntAsInt()
		chains = append(chains, ch)
	}
	nm := cs.Len(2)
	chainMap := make(map[uint64]*chain, nm)
	for i := 0; i < nm; i++ {
		id := cs.Uint()
		idx := cs.Uint()
		if cs.Err() != nil {
			break
		}
		if idx >= uint64(len(chains)) {
			return fmt.Errorf("checkpoint: section %q: chain index %d outside table of %d", secInjectChains, idx, len(chains))
		}
		chainMap[id] = chains[idx]
	}
	nr := cs.Len(2)
	resends := make([]resend, 0, nr)
	for i := 0; i < nr; i++ {
		due := cs.Int()
		idx := cs.Uint()
		if cs.Err() != nil {
			break
		}
		if idx >= uint64(len(chains)) {
			return fmt.Errorf("checkpoint: section %q: resend chain index %d outside table of %d", secInjectChains, idx, len(chains))
		}
		resends = append(resends, resend{due: due, ch: chains[idx]})
	}
	nh := cs.Len(1)
	handled := make(map[uint64]bool, nh)
	for i := 0; i < nh; i++ {
		handled[cs.Uint()] = true
	}
	if err := cs.Finish(); err != nil {
		return err
	}

	st, err := r.Section(secInjectStats)
	if err != nil {
		return err
	}
	var stats Stats
	for _, p := range []*int{
		&stats.EventsApplied, &stats.KilledInFlight, &stats.DropsEnRoute,
		&stats.DropsOther, &stats.Retransmits, &stats.Recovered,
		&stats.Duplicates, &stats.LostUnreachable, &stats.LostExhausted,
		&stats.LostUntraceable, &stats.Victims,
	} {
		*p = st.IntAsInt()
	}
	if st.Version() >= 3 {
		stats.ReconfigDrained = st.IntAsInt()
	}
	if err := st.Finish(); err != nil {
		return err
	}

	ca, err := r.Section(secInjectCasualties)
	if err != nil {
		return err
	}
	ncas := ca.Len(3)
	casualties := make([]Casualty, 0, ncas)
	for i := 0; i < ncas; i++ {
		var c Casualty
		c.Cycle = ca.Int()
		c.Fault = fault.DecodeFault(ca)
		nl := ca.Len(4)
		for j := 0; j < nl; j++ {
			var l core.Lost
			l.PacketID = ca.Uint()
			l.Known = ca.Bool()
			l.Src = geom.DecodeCoord(ca)
			l.Dst = geom.DecodeCoord(ca)
			l.RC = flit.RC(ca.Byte())
			l.Size = ca.IntAsInt()
			l.AlreadyDropped = ca.Bool()
			c.Lost = append(c.Lost, l)
		}
		casualties = append(casualties, c)
	}
	if err := ca.Finish(); err != nil {
		return err
	}

	inj.next = next
	inj.err = injErr
	inj.chains = chainMap
	inj.pendingResends = resends
	inj.handled = handled
	inj.stats = stats
	inj.casualties = casualties
	return nil
}
