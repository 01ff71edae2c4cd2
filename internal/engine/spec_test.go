package engine_test

// The kernel's rules, written once for reading: spec is a reference stepper
// sharing no code with the kernel. A FIFO per input port, a credit counter
// per output, no pooling, active sets or columns: every cycle it runs land →
// eject → allocate → traverse → inject over every port in creation order.

import (
	"cmp"
	"fmt"
	"slices"

	"sr2201/internal/engine"
	"sr2201/internal/flit"
)

// specRoute is the cut-through state of the packet at one input port, from
// its header's routing until its tail leaves.
type specRoute struct {
	h           *flit.Header
	outs        []int // output port ids, in the decision's order
	granted     []bool
	sink        bool // dropped: consume flits until the tail, forward none
	provisional bool // re-routed each cycle until granted
	rewrite     flit.Rewrite
	since       int64 // the cycle its header was first routed: its age
}

func (rs *specRoute) allGranted() bool { return !slices.Contains(rs.granted, false) }

// specPort is the input and the output port a node's port index names. Ids
// are creation order, as in the engine.
type specPort struct {
	node     *engine.Node
	idx      int
	buf      []flit.Flit // the flits visible to the node, head first
	link     []flit.Flit // the flit sent into it this cycle (0 or 1)
	route    *specRoute
	recv     *flit.Header // an endpoint's packet being consumed
	up, down int          // the output feeding the input, the input the output feeds; -1 if none
	credits  int          // free slots downstream: a send takes one, a pop there returns it
	owner    int          // the input whose packet holds it, -1 if free
	arb      int          // incremental mode's round-robin pointer
	phys     int          // its shared physical channel, -1 if none
	// The engine's BlockedCycles, BusyCycles and ConflictCycles.
	blocked, busy, conf int64
}

// specEP is an endpoint: its port, its source queue and its packet counts.
type specEP struct {
	port                     int
	queue                    []flit.Flit
	injected, sent, received int64
}

// specEvent is one delivery or drop (reason ""), the header by value.
type specEvent struct {
	cycle  int64
	node   int
	h      flit.Header
	reason string
}

type spec struct {
	depth                 int
	atomic                bool
	ports                 []specPort
	base                  []int // by node ID: its port 0's id
	sw                    []int // switch input ports, in creation order
	eps                   []specEP
	epOf                  map[*engine.Node]int
	chans                 [][]int // by physical channel: its member outputs
	chanArb               []int
	cycle, moves, dropped int64
	events                []specEvent
	OnDeliver             func(engine.Delivery)
	OnForward             func(from *engine.Node, out int, h *flit.Header, cycle int64)
	onAtomic              func(reqs []int) // each cycle's requests, in atomic allocation's order
}

func newSpec(cfg engine.Config) *spec {
	return &spec{depth: cfg.BufferDepth, atomic: cfg.Acquire == engine.AcquireAtomic, epOf: map[*engine.Node]int{}}
}

// addNode gives node n its ports, ids following on.
func (s *spec) addNode(n *engine.Node) {
	s.base = append(s.base, len(s.ports))
	for k := range n.In {
		if n.Kind == engine.KindEndpoint {
			s.epOf[n] = len(s.eps)
			s.eps = append(s.eps, specEP{port: len(s.ports)})
		} else {
			s.sw = append(s.sw, len(s.ports))
		}
		s.ports = append(s.ports, specPort{node: n, idx: k, up: -1, down: -1, owner: -1, phys: -1})
	}
}

// connect links output o to input d, whose free slots are o's credits.
func (s *spec) connect(o, d int) {
	s.ports[o].down, s.ports[d].up, s.ports[o].credits = d, o, s.depth
}

// share puts outputs onto one physical channel, in its arbitration order.
func (s *spec) share(members []int) {
	for _, o := range members {
		s.ports[o].phys = len(s.chans)
	}
	s.chans, s.chanArb = append(s.chans, members), append(s.chanArb, 0)
}

// InjectPacket queues a packet at an endpoint, stamped with the cycle.
func (s *spec) InjectPacket(n *engine.Node, h flit.Header, size int) {
	ep := &s.eps[s.epOf[n]]
	h.InjectedAt = s.cycle
	ep.queue = flit.AppendPacket(ep.queue, &h, size)
	ep.injected++
}

// pop takes the head flit of input p's buffer, returning a credit upstream.
func (s *spec) pop(p int) flit.Flit {
	r := &s.ports[p]
	f := r.buf[0]
	r.buf = r.buf[1:]
	if r.up >= 0 {
		s.ports[r.up].credits++
	}
	s.moves++
	return f
}

// send puts f on output o's link, taking a credit; it lands next cycle.
func (s *spec) send(o int, f flit.Flit) {
	out, d := &s.ports[o], &s.ports[s.ports[o].down]
	if len(d.link) > 0 || out.credits < 1 {
		panic(fmt.Sprintf("spec: cycle %d: send on %s.out%d with %d credits, link holding %d", s.cycle, out.node.Name, out.idx, out.credits, len(d.link)))
	}
	out.credits--
	d.link = append(d.link, f)
	out.busy++
}

// route runs input p's routing function for header h. A failed switch, a
// routing error or an empty decision sinks the packet and drops it.
func (s *spec) route(p int, h *flit.Header) *specRoute {
	r := &s.ports[p]
	rs := &specRoute{h: h, since: s.cycle}
	reason := "arrived at failed switch"
	if !r.node.Failed {
		dec, err := r.node.Route()(r.node, r.idx, h)
		if err == nil && len(dec.Outs) > 0 {
			for _, o := range dec.Outs {
				rs.outs = append(rs.outs, s.base[r.node.ID]+o)
			}
			rs.granted = make([]bool, len(rs.outs))
			rs.rewrite, rs.provisional = dec.Rewrite, dec.Provisional
			return rs
		}
		if reason = "routing function returned no outputs"; err != nil {
			reason = err.Error()
		}
	}
	rs.sink = true
	s.dropped++
	s.events = append(s.events, specEvent{s.cycle, r.node.ID, *h, reason})
	return rs
}

// release ends input p's cut-through state, freeing the outputs it holds.
func (s *spec) release(p int) {
	for _, o := range s.ports[p].route.outs {
		if s.ports[o].owner == p {
			s.ports[o].owner = -1
		}
	}
	s.ports[p].route = nil
}

// step runs one cycle.
func (s *spec) step() {
	// Land: the flit on each link joins the tail of its port's buffer.
	for p := range s.ports {
		s.ports[p].buf, s.ports[p].link = append(s.ports[p].buf, s.ports[p].link...), nil
	}
	// Eject: every endpoint consumes all its arrived flits.
	for i := range s.eps {
		ep := &s.eps[i]
		for r := &s.ports[ep.port]; len(r.buf) > 0; {
			f := s.pop(ep.port)
			if f.Header != nil {
				r.recv = f.Header
			}
			if f.Last {
				ep.received++
				s.events = append(s.events, specEvent{s.cycle, r.node.ID, *r.recv, ""})
				if s.OnDeliver != nil {
					s.OnDeliver(engine.Delivery{At: r.node, Header: r.recv, Cycle: s.cycle})
				}
				r.recv = nil
			}
		}
	}
	// Allocate: route fresh headers, re-route provisional decisions that
	// won nothing last cycle (keeping their age), and gather the requests:
	// routed packets still missing an output.
	var reqs []int
	for _, p := range s.sw {
		r := &s.ports[p]
		if rs := r.route; rs != nil && rs.provisional && !rs.granted[0] {
			r.route = s.route(p, r.buf[0].Header)
			r.route.since = rs.since
		} else if rs == nil && len(r.buf) > 0 {
			if r.buf[0].Header == nil {
				panic(fmt.Sprintf("spec: mid-packet flit at %s.in%d", r.node.Name, r.idx))
			}
			r.route = s.route(p, r.buf[0].Header)
		}
		if rs := r.route; rs != nil && !rs.sink && !rs.allGranted() {
			reqs = append(reqs, p)
		}
	}
	// An output that two requests want, free and not yet theirs, is a
	// conflict this cycle.
	pend := map[int][]int{}
	for _, p := range reqs {
		rs := s.ports[p].route
		for i, o := range rs.outs {
			if !rs.granted[i] && s.ports[o].owner < 0 {
				if pend[o] = append(pend[o], p); len(pend[o]) == 2 {
					s.ports[o].conf++
				}
			}
		}
	}
	grant := func(p, o int) {
		rs := s.ports[p].route
		rs.granted[slices.Index(rs.outs, o)] = true
		s.ports[o].owner = p
	}
	if s.atomic {
		// All outputs or none, in order of arrival: older header first,
		// same-cycle ties by node and then by the switch's rotation of the
		// port index. A refused request reserves its outputs against
		// younger ones for the rest of the cycle.
		tie := func(r *specPort) int { return (r.idx + r.node.ID) % len(r.node.In) }
		slices.SortFunc(reqs, func(a, b int) int {
			ra, rb := &s.ports[a], &s.ports[b]
			return cmp.Or(cmp.Compare(ra.route.since, rb.route.since), cmp.Compare(ra.node.ID, rb.node.ID), cmp.Compare(tie(ra), tie(rb)))
		})
		if s.onAtomic != nil {
			s.onAtomic(reqs)
		}
		reserved := map[int]bool{}
		for _, p := range reqs {
			outs := s.ports[p].route.outs
			free := !slices.ContainsFunc(outs, func(o int) bool { return s.ports[o].owner >= 0 || reserved[o] })
			for _, o := range outs {
				if free {
					grant(p, o)
				} else {
					reserved[o] = true
				}
			}
		}
	} else {
		// Each free output goes to one requester, round-robin; a fan-out
		// holds what it won while it waits for the rest.
		for o, ps := range pend {
			grant(ps[s.ports[o].arb%len(ps)], o)
			s.ports[o].arb++
		}
	}
	// Traverse: a packet holding every output, with a flit buffered and a
	// credit on every output, moves one flit on each branch, once each of
	// its outputs on a shared physical channel wins the channel.
	var ready, sunk []int
	wants := map[int][]int{}
	for _, p := range s.sw {
		r := &s.ports[p]
		switch {
		case r.route == nil || len(r.buf) == 0:
		case r.route.sink:
			sunk = append(sunk, p)
		case !r.route.allGranted() || slices.ContainsFunc(r.route.outs, func(o int) bool { return s.ports[o].credits < 1 }):
			r.blocked++
		default:
			ready = append(ready, p)
			for _, o := range r.route.outs {
				if c := s.ports[o].phys; c >= 0 {
					wants[c] = append(wants[c], o)
				}
			}
		}
	}
	// A channel goes round-robin to the first wanting member at or after
	// its pointer.
	won := map[int]int{}
	for c, outs := range wants {
		m := s.chans[c]
		for k := 0; ; k++ {
			if i := (s.chanArb[c] + k) % len(m); slices.Contains(outs, m[i]) {
				won[c], s.chanArb[c] = m[i], (i+1)%len(m)
				break
			}
		}
	}
	for _, p := range ready {
		r := &s.ports[p]
		rs := r.route
		if slices.ContainsFunc(rs.outs, func(o int) bool { c := s.ports[o].phys; return c >= 0 && won[c] != o }) {
			r.blocked++
			continue
		}
		f := s.pop(p)
		for _, o := range rs.outs {
			b := f
			if f.Header != nil {
				if rs.rewrite != 0 || len(rs.outs) > 1 {
					h := *f.Header
					rs.rewrite.Apply(&h)
					b.Header = &h
				}
				if s.OnForward != nil {
					s.OnForward(r.node, s.ports[o].idx, b.Header, s.cycle)
				}
			}
			s.send(o, b)
		}
		if f.Last {
			s.release(p)
		}
	}
	// A sinking packet drains one flit a cycle; its credits come back only
	// after every traversal test above was taken.
	for _, p := range sunk {
		if s.pop(p).Last {
			s.release(p)
		}
	}
	// Inject: an endpoint sends its next queued flit on a credit.
	for i := range s.eps {
		ep := &s.eps[i]
		if len(ep.queue) == 0 || s.ports[ep.port].credits < 1 {
			continue
		}
		f := ep.queue[0]
		ep.queue = ep.queue[1:]
		if f.Header != nil && s.OnForward != nil {
			s.OnForward(s.ports[ep.port].node, 0, f.Header, s.cycle)
		}
		s.send(ep.port, f)
		s.moves++
		if f.Last {
			ep.sent++
		}
	}
	s.cycle++
}

// KillSwitch fails switch n and purges every packet with a flit, a route
// state or a flit in flight at it.
func (s *spec) KillSwitch(n *engine.Node) []engine.KilledPacket {
	w, ports := wounded{}, s.ports[s.base[n.ID]:s.base[n.ID]+len(n.In)]
	for _, r := range ports {
		for _, f := range r.buf {
			w.add(f.PacketID, f.Header)
		}
		if r.route != nil {
			w.add(r.route.h.PacketID, r.route.h)
		}
	}
	for _, r := range ports {
		for _, f := range r.link {
			w.add(f.PacketID, f.Header)
		}
	}
	killed, _ := s.purge(w)
	return killed
}

// KillPacket purges one packet; false when nothing of it is left.
func (s *spec) KillPacket(id uint64) (engine.KilledPacket, bool) {
	killed, ok := s.purge(wounded{id: nil})
	return append(killed, engine.KilledPacket{})[0], ok
}

// wounded maps the packets a purge removes to the first header found.
type wounded map[uint64]*flit.Header

func (w wounded) add(id uint64, h *flit.Header) {
	if cur, ok := w[id]; !ok || cur == nil {
		w[id] = h
	}
}

// purge removes every flit, route state and receive state of the wounded
// packets, returning credits and freeing outputs as forwarding would, and
// reports them by id. Each counts as dropped unless a sink had already
// dropped it. It reports false, and counts nothing, when nothing was left.
func (s *spec) purge(w wounded) ([]engine.KilledPacket, bool) {
	sunk, removed := map[uint64]bool{}, 0
	hit := func(id uint64) bool { _, ok := w[id]; return ok }
	keep := func(fs []flit.Flit, credit int) []flit.Flit {
		var kept []flit.Flit
		for _, f := range fs {
			if !hit(f.PacketID) {
				kept = append(kept, f)
				continue
			}
			w.add(f.PacketID, f.Header)
			removed++
			if credit >= 0 {
				s.ports[credit].credits++
			}
		}
		return kept
	}
	for p := range s.ports {
		r := &s.ports[p]
		if i, ok := s.epOf[r.node]; ok {
			s.eps[i].queue = keep(s.eps[i].queue, -1)
		}
		r.buf = keep(r.buf, r.up)
		if rs := r.route; rs != nil && hit(rs.h.PacketID) {
			w.add(rs.h.PacketID, rs.h)
			sunk[rs.h.PacketID] = sunk[rs.h.PacketID] || rs.sink
			s.release(p)
			removed++
		}
		if r.recv != nil && hit(r.recv.PacketID) {
			r.recv = nil
			removed++
		}
	}
	for p := range s.ports {
		s.ports[p].link = keep(s.ports[p].link, s.ports[p].up)
	}
	if removed == 0 {
		return nil, false
	}
	var killed []engine.KilledPacket
	for id, h := range w {
		killed = append(killed, engine.KilledPacket{ID: id, Header: h, AlreadyDropped: sunk[id]})
		if !sunk[id] {
			s.dropped++
		}
	}
	slices.SortFunc(killed, func(a, b engine.KilledPacket) int { return cmp.Compare(a.ID, b.ID) })
	return killed, true
}
