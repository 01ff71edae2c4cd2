// Package inject drives deterministic dynamic-fault schedules against a
// running Machine: a fault (RTC or XB) activates at a given cycle mid-run,
// in-flight casualties are purged and accounted, and — optionally — the
// sources of lost packets retransmit after a configurable timeout with
// exponential backoff and delivered-exactly-once accounting.
//
// The Injector installs itself on the engine's PreCycle hook, so a schedule
// is part of the simulation's deterministic state: two machines driven with
// the same schedule produce identical per-cycle StateHash streams (pinned
// by this package's determinism tests).
package inject

import (
	"errors"
	"fmt"
	"sort"

	"sr2201/internal/core"
	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
)

// Event schedules one fault activation.
type Event struct {
	// Cycle is the simulation time at which the fault activates (applied in
	// the PreCycle hook, i.e. before any flit moves in that cycle).
	Cycle int64
	// Fault is the switch that dies.
	Fault fault.Fault
}

// Options tune the injector's recovery behavior. The JSON names are the
// job-spec and replay-recording spelling; the order is part of every job's
// spec hash.
type Options struct {
	// Retransmit re-sends lost unicast packets from their sources. Without
	// it, losses are only counted.
	Retransmit bool `json:"retransmit,omitempty"`
	// RetryAfter is the timeout (cycles) before the first retransmission of
	// a lost packet. <= 0 selects 64.
	RetryAfter int64 `json:"retry_after,omitempty"`
	// Backoff multiplies the timeout on each further attempt. < 1 selects 2.
	Backoff int `json:"backoff,omitempty"`
	// MaxRetries caps retransmission attempts per packet. <= 0 selects 4.
	MaxRetries int `json:"max_retries,omitempty"`
	// StallThreshold configures the deadlock watchdog of the run the
	// schedule drives (<= 0 = default).
	StallThreshold int64 `json:"stall,omitempty"`
}

// DefaultMaxRetryAfter caps the backed-off retransmission timeout (cycles):
// the delay before attempt n is min(RetryAfter × Backoff^(n-1),
// DefaultMaxRetryAfter). Without a cap the product grows without limit — and
// overflows int64 — once a packet is lost repeatedly (e.g. a victim purged on
// every recovery round). Large enough that default-tuned schedules
// (RetryAfter 64, Backoff 2, MaxRetries 4) never hit it.
const DefaultMaxRetryAfter = 1 << 16

func (o *Options) normalize() {
	if o.RetryAfter <= 0 {
		o.RetryAfter = 64
	}
	if o.Backoff < 1 {
		o.Backoff = 2
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 4
	}
}

// Casualty records the in-flight losses of one applied fault event.
type Casualty struct {
	Cycle int64
	Fault fault.Fault
	Lost  []core.Lost
}

// Stats aggregates the injector's accounting. With retransmission enabled
// and the run drained, every accepted unicast satisfies exactly one of:
// delivered (original or recovered), LostUnreachable, LostExhausted,
// LostUntraceable — and Duplicates is zero (delivered-exactly-once).
type Stats struct {
	// EventsApplied counts fault events that fired.
	EventsApplied int
	// KilledInFlight counts packets purged by fault events (excluding those
	// routing had already dropped — see DropsEnRoute).
	KilledInFlight int
	// DropsEnRoute counts unicast packets the routing layer dropped inside
	// the network (e.g. on arrival at a switch that died after they
	// committed to it).
	DropsEnRoute int
	// DropsOther counts non-unicast drops (broadcast branches etc.); these
	// are never retransmitted.
	DropsOther int
	// Retransmits counts re-sent packets.
	Retransmits int
	// Recovered counts originally-lost packets whose retransmission (any
	// attempt) was delivered.
	Recovered int
	// Duplicates counts deliveries beyond the first for one logical packet
	// (must stay zero).
	Duplicates int
	// LostUnreachable counts packets abandoned because the rebuilt fault
	// bits predict the destination unreachable (the documented
	// ErrUnreachable cases).
	LostUnreachable int
	// LostExhausted counts packets abandoned after MaxRetries attempts.
	LostExhausted int
	// LostUntraceable counts purged packets whose header was gone, so no
	// retransmission was possible.
	LostUntraceable int
	// Victims counts packets sacrificed by the recovery layer to dissolve a
	// wait cycle (LoseVictim). Each is also routed through the normal loss
	// machinery, so it ends delivered-on-retry, LostExhausted,
	// LostUnreachable, LostUntraceable or DropsOther like any other loss.
	Victims int
}

// chain tracks one logical packet across its retransmission attempts.
type chain struct {
	src, dst   geom.Coord
	size       int
	attempts   int // retransmissions sent so far
	delivered  int
	victimized int // times sacrificed by the recovery layer (LoseVictim)
}

// resend is one scheduled retransmission.
type resend struct {
	due int64
	ch  *chain
}

// Injector owns a fault schedule bound to one Machine.
type Injector struct {
	m      *core.Machine
	events []Event
	next   int
	opt    Options

	pendingResends []resend
	// chains maps the latest attempt's packet ID to its logical packet.
	chains map[uint64]*chain
	// handled marks packet IDs whose loss has been processed, so a drop
	// followed by a purge of the same attempt cannot double-schedule.
	handled map[uint64]bool

	stats      Stats
	casualties []Casualty
	err        error
}

// New binds a schedule to a machine. Events are validated against the
// machine's shape up front (using a clone of its fault set) and applied in
// cycle order, insertion order breaking ties. The injector chains onto the
// engine's PreCycle and OnDrop hooks and the machine's OnDeliver callback,
// preserving any handlers already installed.
func New(m *core.Machine, events []Event, opt Options) (*Injector, error) {
	opt.normalize()
	probe := m.Faults().Clone()
	for _, ev := range events {
		if ev.Cycle < 0 {
			return nil, fmt.Errorf("inject: negative event cycle %d", ev.Cycle)
		}
		if err := probe.Add(ev.Fault); err != nil {
			return nil, fmt.Errorf("inject: bad event: %w", err)
		}
	}
	inj := &Injector{
		m:       m,
		events:  append([]Event(nil), events...),
		opt:     opt,
		chains:  map[uint64]*chain{},
		handled: map[uint64]bool{},
	}
	sort.SliceStable(inj.events, func(i, j int) bool { return inj.events[i].Cycle < inj.events[j].Cycle })

	eng := m.Engine()
	prevPre := eng.PreCycle
	eng.PreCycle = func(c int64) {
		if prevPre != nil {
			prevPre(c)
		}
		inj.preCycle(c)
	}
	prevDrop := eng.OnDrop
	eng.OnDrop = func(d engine.Drop) {
		if prevDrop != nil {
			prevDrop(d)
		}
		inj.onDrop(d)
	}
	prevDel := m.OnDeliver
	m.OnDeliver = func(d core.Delivery) {
		if prevDel != nil {
			prevDel(d)
		}
		inj.onDeliver(d)
	}
	return inj, nil
}

// preCycle applies due fault events and due retransmissions.
func (inj *Injector) preCycle(cycle int64) {
	for inj.next < len(inj.events) && inj.events[inj.next].Cycle <= cycle {
		ev := inj.events[inj.next]
		inj.next++
		lost, err := inj.m.FailNow(ev.Fault)
		if err != nil {
			inj.fail(err)
			return
		}
		inj.stats.EventsApplied++
		inj.casualties = append(inj.casualties, Casualty{Cycle: cycle, Fault: ev.Fault, Lost: lost})
		for _, l := range lost {
			if inj.handled[l.PacketID] {
				continue // routing dropped it earlier; already processed
			}
			inj.handled[l.PacketID] = true
			if !l.Known {
				inj.stats.LostUntraceable++
				continue
			}
			if l.RC != flit.RCNormal && l.RC != flit.RCDetour {
				inj.stats.DropsOther++
				continue
			}
			inj.stats.KilledInFlight++
			inj.lose(cycle, l.PacketID, l.Src, l.Dst, l.Size)
		}
	}
	if len(inj.pendingResends) == 0 {
		return
	}
	// Collect due chains first: retrying appends to pendingResends, which
	// must not race the filtering pass.
	var due []*chain
	kept := inj.pendingResends[:0]
	for _, r := range inj.pendingResends {
		if r.due <= cycle {
			due = append(due, r.ch)
		} else {
			kept = append(kept, r)
		}
	}
	inj.pendingResends = kept
	for _, ch := range due {
		inj.retry(cycle, ch)
	}
}

// lose routes one lost attempt into the recovery machinery: schedule a
// retransmission (when enabled) or account the loss as final.
func (inj *Injector) lose(cycle int64, id uint64, src, dst geom.Coord, size int) {
	ch := inj.chains[id]
	if ch == nil {
		ch = &chain{src: src, dst: dst, size: size}
		inj.chains[id] = ch
	}
	if !inj.opt.Retransmit {
		return
	}
	delay := backoffDelay(inj.opt.RetryAfter, inj.opt.Backoff, DefaultMaxRetryAfter, ch.attempts)
	inj.pendingResends = append(inj.pendingResends, resend{due: cycle + delay, ch: ch})
}

// backoffDelay computes min(retryAfter × backoff^attempts, cap) without ever
// overflowing: the product is abandoned the moment one more multiplication
// would cross the cap, so the intermediate value never exceeds cap × backoff.
func backoffDelay(retryAfter int64, backoff int, cap int64, attempts int) int64 {
	delay := retryAfter
	if delay > cap {
		return cap
	}
	for i := 0; i < attempts; i++ {
		if delay > cap/int64(backoff) {
			return cap
		}
		delay *= int64(backoff)
	}
	return delay
}

// LoseVictim routes one recovery-purged packet (core.PurgePacket) into the
// loss machinery, exactly as a fault casualty would be: accounted, and —
// with retransmission enabled — scheduled for re-send with the usual
// backoff. It returns true when a retransmission chain now covers the
// packet (so the loss is recoverable), false when the loss is final
// (untraceable header, or a non-unicast packet that is never
// retransmitted). Safe to call for a packet whose drop was already
// observed: the handled guard makes it a no-op, returning whether the
// earlier processing left a live chain.
func (inj *Injector) LoseVictim(cycle int64, l core.Lost) bool {
	if inj.handled[l.PacketID] {
		ch := inj.chains[l.PacketID]
		return ch != nil && inj.opt.Retransmit
	}
	inj.handled[l.PacketID] = true
	if !l.Known {
		inj.stats.LostUntraceable++
		return false
	}
	if l.RC != flit.RCNormal && l.RC != flit.RCDetour {
		// Broadcast branches and other non-unicast traffic cannot be
		// retransmitted; the sacrifice is final.
		inj.stats.DropsOther++
		return false
	}
	inj.stats.Victims++
	inj.lose(cycle, l.PacketID, l.Src, l.Dst, l.Size)
	if ch := inj.chains[l.PacketID]; ch != nil {
		ch.victimized++
	}
	return inj.opt.Retransmit
}

// Victimized reports how many times the logical packet behind the given
// attempt ID has been sacrificed by the recovery layer. Zero for unknown
// packets.
func (inj *Injector) Victimized(id uint64) int {
	if ch := inj.chains[id]; ch != nil {
		return ch.victimized
	}
	return 0
}

// retry re-sends one chain's packet, or abandons it.
func (inj *Injector) retry(cycle int64, ch *chain) {
	if ch.attempts >= inj.opt.MaxRetries {
		inj.stats.LostExhausted++
		return
	}
	id, err := inj.m.Send(ch.src, ch.dst, ch.size)
	if err != nil {
		if errors.Is(err, routing.ErrUnreachable) {
			// The NIA's pre-set fault bits predict the destination cannot be
			// served: the loss is final and documented.
			inj.stats.LostUnreachable++
			return
		}
		inj.fail(err)
		return
	}
	ch.attempts++
	inj.stats.Retransmits++
	inj.chains[id] = ch
}

// onDrop observes packets the routing layer discarded inside the network.
func (inj *Injector) onDrop(d engine.Drop) {
	h := d.Header
	if h == nil || inj.handled[h.PacketID] {
		return
	}
	inj.handled[h.PacketID] = true
	if h.RC != flit.RCNormal && h.RC != flit.RCDetour {
		inj.stats.DropsOther++
		return
	}
	inj.stats.DropsEnRoute++
	inj.lose(d.Cycle, h.PacketID, h.Src, h.Dst, h.Size)
}

// onDeliver closes retransmission chains and detects duplicates.
func (inj *Injector) onDeliver(d core.Delivery) {
	ch := inj.chains[d.PacketID]
	if ch == nil {
		return
	}
	ch.delivered++
	if ch.delivered == 1 {
		inj.stats.Recovered++
	} else {
		inj.stats.Duplicates++
	}
}

func (inj *Injector) fail(err error) {
	if inj.err == nil {
		inj.err = err
	}
}

// Pending reports whether the injector still owes the simulation work:
// unapplied fault events or scheduled retransmissions.
func (inj *Injector) Pending() bool {
	return inj.next < len(inj.events) || len(inj.pendingResends) > 0
}

// Stats returns a snapshot of the accounting.
func (inj *Injector) Stats() Stats { return inj.stats }

// Casualties returns the per-event loss records, in application order.
func (inj *Injector) Casualties() []Casualty { return inj.casualties }

// Err returns the first internal error (a mid-run FailNow or Send failure
// that is not ErrUnreachable), or nil.
func (inj *Injector) Err() error { return inj.err }
