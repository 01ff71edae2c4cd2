package engine

// Dynamic faults: a switch dying *while traffic is in flight*. The kernel's
// contribution is KillSwitch, which marks the switch failed and purges every
// packet the death wounds, releasing all resources those packets held so the
// surviving traffic keeps flowing under intact conservation laws (the same
// invariants CheckInvariants audits).
//
// Semantics (DESIGN.md §6): a packet is *wounded* when, at the instant of
// the fault, it has a flit or an open cut-through state at the dead switch,
// or a flit in flight on a link into it. Wounded packets are removed from
// the whole network — a cut-through circuit spans switches, and a partial
// removal would leave headerless flit trains that the kernel (correctly)
// treats as a fatal protocol violation. Packets whose headers have not yet
// reached the dead switch are untouched: the routing layer's rebuilt fault
// bits steer them around the fault (RC=3 detour), or they are dropped on
// arrival at the failed switch like any misrouted packet.

import (
	"fmt"
	"slices"

	"sr2201/internal/flit"
)

// KilledPacket identifies one packet destroyed by KillSwitch.
type KilledPacket struct {
	ID uint64
	// Header is the packet's last known header (source, destination, RC bits
	// at the point of death). Nil only if no header-bearing flit of the
	// packet remained anywhere in the network. A purge never returns a
	// header to the engine's pool, so the caller may keep it.
	Header *flit.Header
	// AlreadyDropped marks a packet that the routing layer had already sunk
	// (counted in Dropped and reported via OnDrop) before the fault; the
	// purge reclaims its resources but does not count it dropped again.
	AlreadyDropped bool
}

// KillSwitch marks a switch faulty mid-run and purges every wounded packet
// (see the package comment above for the wound rule) from the entire
// network: source-queue tails, input buffers, links, cut-through
// states and endpoint receive state. All resources are released exactly as
// normal forwarding would release them — buffer slots return credits
// upstream, granted output ports are freed — so credit conservation and
// ownership consistency hold after the call. Each purged packet not already
// sunk by routing counts once toward Dropped; OnDrop is NOT invoked (the
// fault layer, not the routing function, decides what a dynamic loss
// means).
//
// The returned casualties are sorted by packet ID. Call between Steps (or
// from the PreCycle hook), never from within a phase.
func (e *Engine) KillSwitch(n *Node) []KilledPacket {
	if n.Kind != KindSwitch {
		panic(fmt.Sprintf("engine: KillSwitch on non-switch %q", n.Name))
	}
	n.Failed = true

	// Collect the wounded set: packets present at n or in flight into n.
	wounded := map[uint64]*flit.Header{}
	add := func(id uint64, h *flit.Header) {
		if cur, ok := wounded[id]; !ok || (cur == nil && h != nil) {
			wounded[id] = h
		}
	}
	for _, in := range n.In {
		for i := 0; i < in.n; i++ {
			add(in.at(i).PacketID, in.at(i).Header)
		}
		if rs := in.route; rs != nil && rs.header != nil {
			add(rs.header.PacketID, rs.header)
		}
	}
	for _, l := range e.links {
		if in := l.to; in.node == n {
			for i := in.n; i < in.n+in.fly; i++ {
				add(in.at(i).PacketID, in.at(i).Header)
			}
		}
	}
	if len(wounded) == 0 {
		return nil
	}
	sunk, _ := e.purgeWounded(wounded)

	ids := make([]uint64, 0, len(wounded))
	for id := range wounded {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]KilledPacket, 0, len(ids))
	for _, id := range ids {
		k := KilledPacket{ID: id, Header: wounded[id], AlreadyDropped: sunk[id]}
		if !k.AlreadyDropped {
			e.dropped++
		}
		out = append(out, k)
	}
	return out
}

// KillPacket purges one packet — every flit, route state and receive state
// it holds anywhere in the network — with the same credit-conserving
// semantics as KillSwitch, but without marking any switch failed. The
// recovery layer uses it to sacrifice a deadlock victim: all resources the
// packet held are released exactly as normal forwarding would release them,
// so the packets it was deadlocked against resume.
//
// The second return is false (and nothing is counted dropped) when no trace
// of the packet remains in the network. As with KillSwitch, call between
// Steps (or from the PreCycle/PostCycle hooks), never from within a phase;
// OnDrop is not invoked.
func (e *Engine) KillPacket(id uint64) (KilledPacket, bool) {
	wounded := map[uint64]*flit.Header{id: nil}
	sunk, removed := e.purgeWounded(wounded)
	if removed == 0 {
		return KilledPacket{}, false
	}
	k := KilledPacket{ID: id, Header: wounded[id], AlreadyDropped: sunk[id]}
	if !k.AlreadyDropped {
		e.dropped++
	}
	return k, true
}

// purgeWounded removes every trace of the wounded packets from the whole
// network — source-queue tails, input buffers, links, cut-through
// states and endpoint receive state — releasing each resource exactly as
// normal forwarding would (buffer slots and in-flight reservations return
// credits upstream, granted output ports are freed). It upgrades wounded's
// header entries as better headers surface, returns the set of packets the
// routing layer had already sunk (counted dropped before the purge), and
// the number of flits/states physically removed.
func (e *Engine) purgeWounded(wounded map[uint64]*flit.Header) (sunk map[uint64]bool, removed int) {
	add := func(id uint64, h *flit.Header) {
		if cur, ok := wounded[id]; !ok || (cur == nil && h != nil) {
			wounded[id] = h
		}
	}
	hit := func(id uint64) bool {
		_, ok := wounded[id]
		return ok
	}

	// sunk remembers packets the routing layer had already counted as
	// dropped (sink states).
	sunk = map[uint64]bool{}
	for _, nd := range e.nodes {
		if nd.Kind == KindEndpoint && nd.InjectQueueLen() > 0 {
			// Un-injected tails of wounded packets die in the source queue.
			kept := nd.injectQ[:nd.injectHead]
			for _, f := range nd.pendingInject() {
				if hit(f.PacketID) {
					add(f.PacketID, f.Header)
					e.resident--
					removed++
					continue
				}
				kept = append(kept, f)
			}
			nd.injectQ = kept
			if nd.injectHead == len(nd.injectQ) {
				nd.injectQ = nd.injectQ[:0]
				nd.injectHead = 0
			}
		}
		for _, in := range nd.In {
			if in.n > 0 {
				// Close the ring up over the purged flits, in place; the
				// in-flight ones behind them move up too and are purged
				// below, in link order.
				kept := 0
				for i := 0; i < in.n+in.fly; i++ {
					f := *in.at(i)
					if i < in.n && hit(f.PacketID) {
						add(f.PacketID, f.Header)
						// Freeing the slot returns the credit upstream,
						// exactly as pop() would.
						if in.upstream != nil {
							in.upstream.from.creditReturn()
						}
						e.resident--
						removed++
						continue
					}
					*in.at(kept) = f
					kept++
				}
				in.n = kept - in.fly
			}
			if rs := in.route; rs != nil && rs.header != nil && hit(rs.header.PacketID) {
				add(rs.header.PacketID, rs.header)
				if rs.sink {
					sunk[rs.header.PacketID] = true
				} else {
					for i, op := range rs.outs {
						if rs.granted[i] {
							op.owner = nil
						}
					}
				}
				e.freeRouteState(rs)
				in.route = nil
				removed++
			}
			if in.recvHeader != nil && hit(in.recvHeader.PacketID) {
				add(in.recvHeader.PacketID, in.recvHeader)
				in.recvHeader = nil
				removed++
			}
		}
	}
	for _, l := range e.links {
		// A purged flit in flight leaves its arrival list; the survivors
		// stay on theirs, so they keep their ages.
		in := l.to
		if in.fly == 0 {
			continue
		}
		kept := in.n
		for i, age := range e.flightAges(in) {
			f := *in.at(in.n + i)
			if !hit(f.PacketID) {
				*in.at(kept) = f
				kept++
				continue
			}
			add(f.PacketID, f.Header)
			// A flit in flight holds a downstream buffer reservation.
			l.from.creditReturn()
			e.resident--
			removed++
			s := e.flightSlot(age)
			j := slices.Index(e.arrivals[s], in)
			e.arrivals[s] = slices.Delete(e.arrivals[s], j, j+1)
		}
		if in.fly = kept - in.n; in.fly == 0 && in.linkActive && !e.cfg.DisableActiveSet {
			e.stale = append(e.stale, in)
		}
	}
	return sunk, removed
}
