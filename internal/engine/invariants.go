package engine

import "fmt"

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
//     present in injection queues, input buffers and link pipelines.
func (e *Engine) CheckInvariants() error {
	var counted int64
	for _, n := range e.nodes {
		counted += int64(n.InjectQueueLen())
		for _, in := range n.In {
			counted += int64(in.n)
		}
		for _, out := range n.Out {
			if out.link == nil {
				if out.owner != nil {
					return fmt.Errorf("engine: unconnected %s.out%d has an owner", n.Name, out.idx)
				}
				continue
			}
			counted += int64(out.link.n)
			down := out.link.to
			if got := out.credits + down.n + out.link.n; got != down.cap {
				return fmt.Errorf("engine: credit leak at %s.out%d: credits=%d + buffered=%d + inflight=%d != cap=%d",
					n.Name, out.idx, out.credits, down.n, out.link.n, down.cap)
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
					if owner.node.Out[o] == out {
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
			for i, o := range rs.outs {
				op := n.Out[o]
				if rs.granted[i] {
					granted++
					if op.owner != in {
						return fmt.Errorf("engine: %s.in%d thinks it holds out%d but the port disagrees", n.Name, in.idx, o)
					}
				} else if op.owner == in {
					return fmt.Errorf("engine: %s.in%d owns out%d without a grant flag", n.Name, in.idx, o)
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
	return nil
}

// CheckActiveSets audits active-set membership between Steps and returns the
// first violation, or nil. Each flag must agree with its bit. A link is a member exactly while it carries flits, an
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
	audit := func(s *activeSet, i int, flag, busy, exact bool, set string, n *Node, port int) {
		if bit := s.words[i>>6]>>(i&63)&1 == 1; err == nil && (bit != flag || busy && !flag || exact && flag && !busy) {
			err = fmt.Errorf("engine: %s.%d: %s member=%v bit=%v busy=%v", n.Name, port, set, flag, bit, busy)
		}
	}
	for _, l := range e.links {
		audit(&e.activeLinks, l.id, l.active, l.n > 0, true, "link", l.from.node, l.from.idx)
	}
	for _, in := range e.fullIn {
		audit(&e.activeAlloc, in.pos, in.active, in.route != nil || in.n > 0, false, "alloc", in.node, in.idx)
	}
	for _, ep := range e.endpoints {
		audit(&e.activeEject, ep.epIdx, ep.ejectActive, ep.In[0].n > 0, true, "eject", ep, 0)
		audit(&e.activeInject, ep.epIdx, ep.injectActive, ep.InjectQueueLen() > 0, true, "inject", ep, 0)
	}
	return err
}
