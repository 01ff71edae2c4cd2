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
//  1. buffer bounds: for every connected output port, the flits buffered
//     downstream and in flight on the link fit the downstream buffer, so
//     the port's credits (the slots left, never stored) are not negative;
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
//     header reachable from two places belongs to one packet;
//  6. wiring: each output's downstream port and each input's upstream port
//     are mutual inverses, as ConnectDirected wired them, every port id
//     names its own handles, every switch input's active-set bit is its
//     creation-order position, and the columns hold one entry per port.
func (e *Engine) CheckInvariants() error {
	if err := e.checkWiring(); err != nil {
		return err
	}
	var counted int64
	for _, n := range e.nodes {
		counted += int64(n.InjectQueueLen())
		for _, in := range n.In {
			counted += int64(e.in[in.id].n)
		}
		for _, out := range n.Out {
			o := e.out[out.id]
			if o.down < 0 {
				if out.owner != nil {
					return fmt.Errorf("engine: unconnected %s.out%d has an owner", n.Name, out.idx)
				}
				continue
			}
			down := e.in[o.down]
			counted += int64(down.fly)
			if c := e.credits(out.id); c < 0 {
				return fmt.Errorf("engine: negative credits at %s.out%d: buffered=%d + inflight=%d > cap=%d",
					n.Name, out.idx, down.n, down.fly, e.cfg.BufferDepth)
			}
			if owner := out.owner; owner != nil {
				rs := e.in[owner.id].route
				if rs == nil {
					return fmt.Errorf("engine: %s.out%d owned by idle input %s.in%d",
						n.Name, out.idx, owner.Node().Name, owner.idx)
				}
				found := false
				for i, o := range rs.outs {
					if o.op == out {
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
			rs := e.in[in.id].route
			if rs == nil || rs.sink {
				continue
			}
			granted := 0
			for i, o := range rs.outs {
				if rs.granted[i] {
					granted++
					if o.op.owner != in {
						return fmt.Errorf("engine: %s.in%d thinks it holds out%d but the port disagrees", n.Name, in.idx, o.op.idx)
					}
				} else if o.op.owner == in {
					return fmt.Errorf("engine: %s.in%d owns out%d without a grant flag", n.Name, in.idx, o.op.idx)
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

// checkWiring audits law 6 of CheckInvariants.
func (e *Engine) checkWiring() error {
	ports := 0
	for _, n := range e.nodes {
		ports += len(n.In)
	}
	if len(e.in) != ports || len(e.out) != ports || len(e.inPorts) != ports || len(e.outPorts) != ports || len(e.slab) != ports*e.cfg.BufferDepth {
		return fmt.Errorf("engine: %d ports but columns of %d/%d/%d/%d entries and a %d-flit slab",
			ports, len(e.in), len(e.out), len(e.inPorts), len(e.outPorts), len(e.slab))
	}
	name := func(id int32, dir string) string {
		if id < 0 || int(id) >= ports {
			return fmt.Sprintf("port %d", id)
		}
		return fmt.Sprintf("%s.%s%d", e.inPorts[id].Node().Name, dir, e.inPorts[id].idx)
	}
	links := 0
	for id := range int32(ports) {
		if e.inPorts[id].id != id || e.outPorts[id].id != id {
			return fmt.Errorf("engine: port id %d holds the handles of %s and %s", id, name(e.inPorts[id].id, "in"), name(e.outPorts[id].id, "out"))
		}
		if d := e.out[id].down; d >= 0 && (int(d) >= ports || e.in[d].up != id) {
			return fmt.Errorf("engine: %s feeds %s, which is not fed by it", name(id, "out"), name(d, "in"))
		}
		if u := e.in[id].up; u >= 0 {
			links++
			if int(u) >= ports || e.out[u].down != id {
				return fmt.Errorf("engine: %s is fed by %s, which does not feed it", name(id, "in"), name(u, "out"))
			}
		}
		bit, sw := int(e.in[id].bit), e.inPorts[id].Node().Kind == KindSwitch
		if sw && (bit < 0 || bit >= len(e.fullIn) || e.fullIn[bit] != id) ||
			!sw && (bit >= 0 || ^bit >= len(e.src) || e.src[^bit].port != id) {
			return fmt.Errorf("engine: %s has active-set bit %d, which is not its scan position", name(id, "in"), bit)
		}
	}
	if links != len(e.links) {
		return fmt.Errorf("engine: %d ports are fed by a link, but %d links are wired", links, len(e.links))
	}
	return nil
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
		if f := e.front(in.id); f != nil {
			return f.PacketID
		}
		return h.PacketID
	}
	for _, n := range e.nodes {
		for _, f := range n.pendingInject() {
			see(f.Header, f.PacketID, "source queue", n, 0)
		}
		for _, in := range n.In {
			for i := 0; i < int(e.in[in.id].n); i++ {
				f := e.at(in.id, i)
				see(f.Header, f.PacketID, "buffer", n, in.idx)
			}
			if rs := e.in[in.id].route; rs != nil && rs.header != nil {
				see(rs.header, owner(in, rs.header), "route state", n, in.idx)
			}
			if h := in.recvHeader; h != nil {
				see(h, owner(in, h), "receive state", n, in.idx)
			}
		}
	}
	for _, p := range e.links {
		for i, r := int(e.in[p].n), e.in[p]; i < int(r.n+r.fly); i++ {
			see(e.at(p, i).Header, e.at(p, i).PacketID, "link", e.inPorts[p].Node(), e.inPorts[p].idx)
		}
	}
	return err
}
