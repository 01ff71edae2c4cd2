package engine

import (
	"slices"

	"sr2201/internal/flit"
)

// This file exposes read-only views of kernel state for the deadlock
// analyzer (wait-for graph construction) and for tests.

// Node returns the node owning the port.
func (p *InPort) Node() *Node { return p.eng.nodeOf[p.id] }

// Index returns the port's index within its node.
func (p *InPort) Index() int { return p.idx }

// CurrentHeader returns the header of the packet holding the port's
// cut-through state, or nil if the port is idle. The header is the engine's
// and valid until the next Step.
func (p *InPort) CurrentHeader() *flit.Header {
	if rs := p.eng.in[p.id].route; rs != nil {
		return rs.header
	}
	return nil
}

// Node returns the node owning the port.
func (o *OutPort) Node() *Node { return o.eng.nodeOf[o.id] }

// Index returns the port's index within its node.
func (o *OutPort) Index() int { return o.idx }

// Owner returns the input port whose packet holds this output, or nil.
func (o *OutPort) Owner() *InPort { return o.owner }

// Phys returns the physical channel the port shares, or nil.
func (o *OutPort) Phys() *PhysChannel { return handle(o.eng.phys, o.eng.out[o.id].phys) }

// DownstreamIn returns the input port this output feeds, or nil when
// unconnected.
func (o *OutPort) DownstreamIn() *InPort {
	return handle(o.eng.inPorts, o.eng.out[o.id].down)
}

// UpstreamOut returns the output port that feeds this input, or nil when
// unconnected.
func (p *InPort) UpstreamOut() *OutPort { return handle(p.eng.outPorts, p.eng.in[p.id].up) }

// handle returns ports[id], or nil for -1 (none).
func handle[P any](ports []*P, id int32) *P {
	if id < 0 {
		return nil
	}
	return ports[id]
}

// UpstreamInFlight reports the flits currently traveling on the link into
// this port. A non-zero value means an apparent flit starvation is
// transient: delivery is already under way.
func (p *InPort) UpstreamInFlight() int { return int(p.eng.in[p.id].fly) }

// WaitInfo describes one switch input port whose packet cannot advance this
// instant, and the resources involved. It is a snapshot: call it only when
// the network is stalled (e.g. after the watchdog fires), since transient
// arbitration losses also appear blocked for a cycle.
type WaitInfo struct {
	// In is the blocked input port; Header identifies its packet (the
	// engine's header, valid until the next Step).
	In     *InPort
	Header *flit.Header
	// Holds are output ports the packet has acquired at this switch.
	Holds []*OutPort
	// WantsOwned are required output ports currently owned by another packet.
	WantsOwned []*OutPort
	// WantsFree are required output ports that are free (the packet merely
	// lost arbitration or was not yet allocated; transient unless the network
	// is wedged for another reason).
	WantsFree []*OutPort
	// CreditStalled are acquired outputs with zero credits: the downstream
	// buffer is full, so progress depends on the downstream input draining.
	CreditStalled []*OutPort
	// AwaitingFlits is true when the port is fully granted and credit-clear
	// but simply has no flit buffered (the packet's flits are upstream).
	AwaitingFlits bool
}

// BlockedPorts snapshots every switch input port holding an active packet
// that cannot complete its next flit movement right now.
func (e *Engine) BlockedPorts() []WaitInfo {
	var out []WaitInfo
	for _, sw := range e.switches {
		for _, in := range sw.In {
			rs := e.in[in.id].route
			if rs == nil || rs.sink {
				continue
			}
			wi := WaitInfo{In: in, Header: rs.header}
			blocked := false
			for i, o := range rs.outs {
				op := o.op
				if rs.granted[i] {
					wi.Holds = append(wi.Holds, op)
					if e.credits(o.id) < 1 {
						wi.CreditStalled = append(wi.CreditStalled, op)
						blocked = true
					}
				} else {
					if op.owner != nil {
						wi.WantsOwned = append(wi.WantsOwned, op)
					} else {
						wi.WantsFree = append(wi.WantsFree, op)
					}
					blocked = true
				}
			}
			if !blocked && e.in[in.id].n == 0 {
				wi.AwaitingFlits = true
				blocked = true
			}
			if blocked {
				out = append(out, wi)
			}
		}
	}
	return out
}

// InFlightHeaders snapshots the header of every packet currently resident in
// the network — source injection queues, input buffers, cut-through states,
// receive states and links — deduplicated by packet ID and sorted
// ascending. unknown lists the IDs (also ascending) of resident packets
// whose header flit is nowhere to be found (body/tail remnants only);
// callers that classify packets by header fields must treat those
// conservatively. The reconfiguration layer uses this scan to decide which
// routing-table generations still have packets routing under them. Call
// between Steps (or from the PreCycle/PostCycle hooks), never from within a
// phase. The headers are the engine's own and valid until the next Step,
// which may recycle them; KillSwitch and KillPacket in between leave them
// intact.
func (e *Engine) InFlightHeaders() (hdrs []*flit.Header, unknown []uint64) {
	seen := packets{}
	add := seen.add
	for _, nd := range e.nodes {
		for _, f := range nd.pendingInject() {
			add(f.PacketID, f.Header)
		}
		for _, in := range nd.In {
			for i := 0; i < int(e.in[in.id].n); i++ {
				add(e.at(in.id, i).PacketID, e.at(in.id, i).Header)
			}
			if rs := e.in[in.id].route; rs != nil && rs.header != nil {
				add(rs.header.PacketID, rs.header)
			}
			if in.recvHeader != nil {
				add(in.recvHeader.PacketID, in.recvHeader)
			}
		}
	}
	for _, p := range e.links {
		for i, r := int(e.in[p].n), e.in[p]; i < int(r.n+r.fly); i++ {
			add(e.at(p, i).PacketID, e.at(p, i).Header)
		}
	}
	ids := make([]uint64, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if h := seen[id]; h != nil {
			hdrs = append(hdrs, h)
		} else {
			unknown = append(unknown, id)
		}
	}
	return hdrs, unknown
}
