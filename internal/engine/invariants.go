package engine

import (
	"fmt"

	"sr2201/internal/flit"
)

// CheckInvariants audits the kernel's conservation laws and returns the
// first violation found, or nil. It is O(network size) and intended for
// tests (property tests call it every cycle) and debugging, not hot loops.
//
// Invariants checked:
//
//  1. credit conservation: for every connected output port,
//     credits + flits buffered downstream + flits in flight on the link
//     equals the downstream buffer capacity;
//  2. ownership consistency: a held output port's owner has an active
//     cut-through state that includes that port as granted, and vice versa;
//  3. grant accounting: each route state's granted count matches its flags;
//  4. flit accounting: the resident counter equals the flits actually
//     present in injection queues, input buffers and on links;
//  5. header ownership: no header reachable from a source queue, input
//     buffer, flit in flight, route state or receive state is on the engine's
//     free list, the free list holds no header twice, and every place
//     holds the header of the packet it serves (a flit its own; a route or
//     receive state that of the flit at the front of its buffer), so a
//     header reachable from two places belongs to one packet.
func (e *Engine) CheckInvariants() error {
	var counted int64
	for _, n := range e.nodes {
		counted += int64(n.InjectQueueLen())
		for _, in := range n.In {
			counted += int64(in.n)
		}
		for _, out := range n.Out {
			if out.down == nil {
				if out.owner != nil {
					return fmt.Errorf("engine: unconnected %s.out%d has an owner", n.Name, out.idx)
				}
				continue
			}
			down := out.down
			counted += int64(down.fly)
			if got := out.credits + down.n + down.fly; got != down.cap {
				return fmt.Errorf("engine: credit leak at %s.out%d: credits=%d + buffered=%d + inflight=%d != cap=%d",
					n.Name, out.idx, out.credits, down.n, down.fly, down.cap)
			}
			if out.credits < 0 {
				return fmt.Errorf("engine: negative credits at %s.out%d", n.Name, out.idx)
			}
			if owner := out.owner; owner != nil {
				rs := owner.route
				if rs == nil {
					return fmt.Errorf("engine: %s.out%d owned by idle input %s.in%d",
						n.Name, out.idx, owner.node.Name, owner.idx)
				}
				found := false
				for i, o := range rs.outs {
					if o == out {
						if !rs.granted[i] {
							return fmt.Errorf("engine: %s.out%d owned but not granted in its route state", n.Name, out.idx)
						}
						found = true
					}
				}
				if !found {
					return fmt.Errorf("engine: %s.out%d owned by a packet that does not request it", n.Name, out.idx)
				}
			}
		}
		for _, in := range n.In {
			rs := in.route
			if rs == nil || rs.sink {
				continue
			}
			granted := 0
			for i, op := range rs.outs {
				if rs.granted[i] {
					granted++
					if op.owner != in {
						return fmt.Errorf("engine: %s.in%d thinks it holds out%d but the port disagrees", n.Name, in.idx, op.idx)
					}
				} else if op.owner == in {
					return fmt.Errorf("engine: %s.in%d owns out%d without a grant flag", n.Name, in.idx, op.idx)
				}
			}
			if granted != rs.nGranted {
				return fmt.Errorf("engine: %s.in%d grant count %d != flags %d", n.Name, in.idx, rs.nGranted, granted)
			}
		}
	}
	if counted != e.resident {
		return fmt.Errorf("engine: resident counter %d != counted flits %d", e.resident, counted)
	}
	return e.checkHeaders()
}

// checkHeaders audits law 5 of CheckInvariants.
func (e *Engine) checkHeaders() error {
	free := make(map[*flit.Header]bool, len(e.hFree))
	for _, h := range e.hFree {
		if free[h] {
			return fmt.Errorf("engine: header of pkt%d released twice (it is on the free list twice)", h.PacketID)
		}
		free[h] = true
	}
	var err error
	// see checks one place holding h on behalf of packet id.
	see := func(h *flit.Header, id uint64, place string, n *Node, port int) {
		switch {
		case h == nil || err != nil:
		case free[h]:
			err = fmt.Errorf("engine: live header of pkt%d in the %s at %s.%d is on the free list", id, place, n.Name, port)
		case h.PacketID != id:
			err = fmt.Errorf("engine: the %s at %s.%d serves pkt%d but holds the header of pkt%d", place, n.Name, port, id, h.PacketID)
		}
	}
	// owner is the packet a route or receive state serves: the one whose
	// flit is at the front of its buffer, if any.
	owner := func(in *InPort, h *flit.Header) uint64 {
		if f := in.front(); f != nil {
			return f.PacketID
		}
		return h.PacketID
	}
	for _, n := range e.nodes {
		for _, f := range n.pendingInject() {
			see(f.Header, f.PacketID, "source queue", n, 0)
		}
		for _, in := range n.In {
			for i := 0; i < in.n; i++ {
				f := in.at(i)
				see(f.Header, f.PacketID, "buffer", n, in.idx)
			}
			if rs := in.route; rs != nil && rs.header != nil {
				see(rs.header, owner(in, rs.header), "route state", n, in.idx)
			}
			if h := in.recvHeader; h != nil {
				see(h, owner(in, h), "receive state", n, in.idx)
			}
		}
	}
	for _, l := range e.links {
		for in, i := l.to, l.to.n; i < in.n+in.fly; i++ {
			see(in.at(i).Header, in.at(i).PacketID, "link", in.node, in.idx)
		}
	}
	return err
}

// CheckActiveSets audits active-set membership between Steps and returns the
// first violation, or nil. Each flag must agree with its bit. A link is
// marked exactly while it carries flits (and counted in linksActive), an
// endpoint eject- (inject-) active exactly while its input buffer (source
// queue) holds flits, and a switch port holding a route state or flits is a
// member (one that traversal emptied waits for the next allocation sweep to
// drop it). KillSwitch and KillPacket remove flits without touching
// membership, so the check does not hold right after them; under
// DisableActiveSet no sweep evicts and it passes trivially.
func (e *Engine) CheckActiveSets() error {
	if e.cfg.DisableActiveSet {
		return nil
	}
	var err error
	audit := func(bit, flag, busy, exact bool, set string, n *Node, port int) {
		if err == nil && (bit != flag || busy && !flag || exact && flag && !busy) {
			err = fmt.Errorf("engine: %s.%d: %s member=%v bit=%v busy=%v", n.Name, port, set, flag, bit, busy)
		}
	}
	member := func(s *activeSet, i int) bool { return s.words[i>>6]>>(i&63)&1 == 1 }
	marked := 0
	for _, l := range e.links {
		p := l.to
		if p.linkActive {
			marked++
		}
		audit(p.linkActive, p.linkActive, p.fly > 0, true, "link", l.from.node, l.from.idx)
	}
	if err == nil && marked != e.linksActive {
		err = fmt.Errorf("engine: %d links marked, counted %d", marked, e.linksActive)
	}
	for _, p := range e.fullIn {
		audit(member(&e.activeAlloc, p.pos), p.active, p.route != nil || p.n > 0, false, "alloc", p.node, p.idx)
	}
	for _, ep := range e.endpoints {
		audit(member(&e.activeEject, ep.epIdx), ep.ejectActive, ep.In[0].n > 0, true, "eject", ep, 0)
		audit(member(&e.activeInject, ep.epIdx), ep.injectActive, ep.InjectQueueLen() > 0, true, "inject", ep, 0)
	}
	return err
}
