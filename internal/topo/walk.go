package topo

import (
	"errors"
	"fmt"

	"sr2201/internal/engine"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// Visit receives one hop of a walk: the channel taken, the header the copy
// leaves on (valid only during the call) and the depth of the switch it
// leaves, 0 at the source router and one more per switch.
type Visit func(ch int32, h *flit.Header, depth int)

// Walker is the one static route walker. It replays a Policy's RouteRouter
// and RouteXB decisions — the calls the engine makes, Rewrites included —
// over a wiring without the engine, for the machine's send-side precheck,
// routing's path and tree queries and every dependence registration, and it
// reports each hop as one channel number. Channels, the switches' out-ports,
// are numbered densely: the routers', routers in Shape.Index order, then on a
// crossbar wiring each dimension's crossbars', in LineIndex order. There a
// port counts wires, as the MD crossbar's routing policy numbers them: the
// walk covers lane 0 of every wire (the escape subnetwork of a multi-lane
// wiring). On a cabled wiring a port is the router's own, lanes included.
//
// A header handed to a policy escapes to the heap, so a unicast walk rewrites
// one the caller keeps in scratch, and a broadcast walk's queue and headers
// are the walker's: a walk allocates nothing but a refusal. A Walker is not
// safe for concurrent use.
type Walker struct {
	shape   geom.Shape
	wiring  Wiring
	policy  Policy
	xbar    bool                // wiring.Crossbars()
	ports   int                 // out-ports per router, the PE port last
	xbFirst [geom.MaxDims]int32 // first number of each dimension's crossbar channels
	n       int32               // the channel count

	queue   []arrival     // the broadcast walk's breadth-first queue
	headers []flit.Header // the broadcast walk's distinct headers
}

// arrival is one switch a walk enters on port in: the router at `at` when dim
// is -1, else the dim-dim crossbar whose line has fixed coordinates `at`.
// depth counts the switches before it; h indexes the walker's headers.
type arrival struct {
	dim          int
	at           geom.Coord
	in, depth, h int
}

// NewWalker numbers the channels of the shape's network as the wiring cables
// it, and walks the policy's decisions over them. The walker is a value, to be
// kept where it is used — a local or a field — so making one allocates
// nothing either.
func NewWalker(shape geom.Shape, w Wiring, p Policy) Walker {
	wk := Walker{shape: shape, wiring: w, policy: p, xbar: w.Crossbars(), ports: w.Ports()}
	if wk.xbar {
		wk.ports = shape.Dims() + 1
	}
	wk.n = int32(shape.Size() * wk.ports)
	for k, extent := range shape {
		wk.xbFirst[k] = wk.n
		if wk.xbar {
			wk.n += int32(shape.LineCount(k) * extent)
		}
	}
	return wk
}

// Channels is the number of channels: every number is below it.
func (w *Walker) Channels() int32 { return w.n }

// Channel numbers out-port out of the router with Shape.Index index (dim -1)
// or of the dim-dim crossbar with LineIndex index.
func (w *Walker) Channel(dim, index, out int) int32 {
	if dim < 0 {
		return int32(index*w.ports + out)
	}
	return w.xbFirst[dim] + int32(index*w.shape[dim]+out)
}

// Port inverts Channel.
func (w *Walker) Port(ch int32) (dim, index, out int) {
	dim = w.shape.Dims() - 1
	for dim >= 0 && ch < w.xbFirst[dim] {
		dim--
	}
	if dim < 0 {
		return -1, int(ch) / w.ports, int(ch) % w.ports
	}
	ch -= w.xbFirst[dim]
	return dim, int(ch) / w.shape[dim], int(ch) % w.shape[dim]
}

// ChannelOf inverts the numbering for an engine out-port of a Net built on
// the walker's shape and wiring: the switch out-port's channel, and which
// lane of it the port is. On a crossbar wiring engine port k·V+v is wire k,
// lane v; on a cabled one the channel is the port itself, lane 0. ok is false
// for a PE's out-port, an injection, which no switch decides.
func (w *Walker) ChannelOf(o *engine.OutPort) (ch int32, lane int, ok bool) {
	port := o.Index()
	if w.xbar {
		port, lane = port/w.wiring.Lanes(), port%w.wiring.Lanes()
	}
	switch m := o.Node().Meta.(type) {
	case RouterMeta:
		return w.Channel(-1, w.shape.Index(m.Coord), port), lane, true
	case XBMeta:
		return w.Channel(m.Line.Dim, w.shape.LineIndex(m.Line), port), lane, true
	}
	return 0, 0, false
}

// Name renders a channel the way certificates name it: "RTC(1,2).out0" or
// "XB0(0,1).out2" on a crossbar wiring; on a cabled one the dimension the
// cable runs along and the far end's value in it, "R(1,2).d0>3", with the
// lane appended where several share the wire ("R(1,2).d0>3.vc1"), or the PE
// delivery channel "R(1,2).pe".
func (w *Walker) Name(ch int32) string {
	dim, index, out := w.Port(ch)
	lanes := w.wiring.Lanes()
	switch {
	case dim >= 0:
		return fmt.Sprintf("XB%d%s.out%d", dim, w.shape.LineAt(dim, index).Fixed, out*lanes)
	case w.xbar:
		return fmt.Sprintf("RTC%s.out%d", w.shape.CoordOf(index), out*lanes)
	}
	c := w.shape.CoordOf(index)
	if out == w.ports-1 {
		return fmt.Sprintf("R%s.pe", c)
	}
	peer, _, _ := w.wiring.Peer(c, out)
	k := c.FirstDiff(peer, geom.MaxDims)
	name := fmt.Sprintf("R%s.d%d>%d", c, k, peer[k])
	if lanes > 1 {
		name += fmt.Sprintf(".vc%d", out%lanes)
	}
	return name
}

// decide asks the policy what the switch does with h. A walked policy reads
// no port state, so it is handed no Net.
func (w *Walker) decide(a *arrival, h *flit.Header) (engine.Decision, error) {
	if a.dim < 0 {
		return w.policy.RouteRouter(nil, a.at, a.in, h)
	}
	return w.policy.RouteXB(nil, geom.Line{Dim: a.dim, Fixed: a.at}, a.in, h)
}

// channel numbers out-port out of the switch a arrived at.
func (w *Walker) channel(a *arrival, out int) int32 {
	if a.dim < 0 {
		return w.Channel(-1, w.shape.Index(a.at), out)
	}
	return w.Channel(a.dim, w.shape.LineIndex(geom.Line{Dim: a.dim, Fixed: a.at}), out)
}

// follow moves a along out-port out of its switch to the switch at the far
// end: a crossbar hop by the MDCrossbar port convention, a cabled one by Peer.
func (w *Walker) follow(a *arrival, out int) error {
	switch {
	case a.dim >= 0: // to the router at point out of the line
		a.at[a.dim], a.in, a.dim = out, a.dim, -1
	case w.xbar: // to the dim-out crossbar, at the router's point of its line
		a.in, a.at[out], a.dim = a.at[out], 0, out
	default:
		peer, in, ok := w.wiring.Peer(a.at, out)
		if !ok {
			return fmt.Errorf("topo: walk left %s by uncabled port %d", a.at, out)
		}
		a.at, a.in = peer, in
	}
	a.depth++
	return nil
}

// Unicast walks header h from its source PE (h.Src) to delivery, rewriting
// *h in place as the switches rewrite the packet's, and reports each hop to
// visit (which may be nil). A refusal is returned as the policy made it. A
// decision with other than one output, a delivery to another PE than the
// header's, and a walk longer than the network has channels (a loop) are
// hard errors. The source router's health is the caller's to check.
func (w *Walker) Unicast(h *flit.Header, visit Visit) error {
	a := arrival{dim: -1, at: h.Src, in: w.ports - 1}
	for a.depth <= int(w.n) {
		dec, err := w.decide(&a, h)
		if err != nil {
			return err
		}
		if len(dec.Outs) != 1 {
			return fmt.Errorf("topo: walk from %s: unicast decision with %d outputs", h.Src, len(dec.Outs))
		}
		out := dec.Outs[0]
		dec.Rewrite.Apply(h)
		if visit != nil {
			visit(w.channel(&a, out), h, a.depth)
		}
		if a.dim < 0 && out == w.ports-1 {
			if a.at != h.Dst {
				return fmt.Errorf("topo: walk from %s delivered at %s, not %s", h.Src, a.at, h.Dst)
			}
			return nil
		}
		if err := w.follow(&a, out); err != nil {
			return err
		}
	}
	return fmt.Errorf("topo: walk from %s exceeded %d hops (routing loop?)", h.Src, w.n)
}

// Broadcast walks header h from its source PE (h.Src) breadth first through
// every copy the policy makes, reporting each out-port taken to visit (which
// may be nil), and returns the fan branches that died. A copy's header is
// copied only where a decision's Rewrite is non-zero. A refused decision on a
// request-class header refuses the broadcast — the source cannot reach the
// serialization point — and is returned; any other refusal is a dead branch
// (possible only in an over-faulted network). A request leg and a fan each
// cross a channel at most once, so a walk of more than twice the network's
// channels has looped. The source router's health is the caller's to check.
func (w *Walker) Broadcast(h *flit.Header, visit Visit) (dead int, err error) {
	w.headers = append(w.headers[:0], *h)
	w.queue = append(w.queue[:0], arrival{dim: -1, at: h.Src, in: w.ports - 1})
	for next := 0; next < len(w.queue); next++ {
		if next > 2*int(w.n) {
			return dead, fmt.Errorf("topo: broadcast walk from %s exceeded %d steps (routing loop?)", h.Src, 2*w.n)
		}
		a := w.queue[next]
		dec, err := w.decide(&a, &w.headers[a.h])
		if err != nil {
			if w.headers[a.h].RC == flit.RCBroadcastRequest {
				return dead, err
			}
			dead++
			continue
		}
		if dec.Rewrite != 0 {
			w.headers = append(w.headers, w.headers[a.h])
			a.h = len(w.headers) - 1
			dec.Rewrite.Apply(&w.headers[a.h])
		}
		for _, out := range dec.Outs {
			if visit != nil {
				visit(w.channel(&a, out), &w.headers[a.h], a.depth)
			}
			if a.dim < 0 && out == w.ports-1 {
				continue // delivered to the PE
			}
			w.queue = append(w.queue, a)
			if err := w.follow(&w.queue[len(w.queue)-1], out); err != nil {
				return dead, err
			}
		}
	}
	return dead, nil
}

// Walked is one resolved static route of a direct-link scheme.
type Walked struct {
	// Channels lists the channel names in traversal order; the last entry
	// is the destination router's PE delivery channel.
	Channels []string
	// Routers lists the router coordinates visited, source first,
	// destination last.
	Routers []geom.Coord
}

// Walk replays the scheme's routing decisions for one source/destination
// pair and returns the route. Refusals surface as ErrUnreachable; a
// scheme that replicates, loops, or walks off its shape is reported as a
// hard error.
func Walk(s Router, src, dst geom.Coord) (Walked, error) {
	w := NewWalker(s.Shape(), s.Wiring(), RouterPolicy(s))
	var route []int32
	if err := w.Unicast(&flit.Header{Src: src, Dst: dst}, func(ch int32, _ *flit.Header, _ int) {
		route = append(route, ch)
	}); err != nil {
		return Walked{}, err
	}
	var walked Walked
	for _, ch := range route {
		_, index, _ := w.Port(ch)
		walked.Channels = append(walked.Channels, w.Name(ch))
		walked.Routers = append(walked.Routers, s.Shape().CoordOf(index))
	}
	return walked, nil
}

// Reach reports whether the scheme serves the pair: Walk's error, without
// naming the channels or listing the routers of a route nobody asked for.
func Reach(s Router, src, dst geom.Coord) error {
	w := NewWalker(s.Shape(), s.Wiring(), RouterPolicy(s))
	return w.Unicast(&flit.Header{Src: src, Dst: dst}, nil)
}

// RegisterUnicastDependences walks every source/destination pair of the
// scheme's shape and records each resolved route's channel dependences in
// the builder. Refused pairs (ErrUnreachable) contribute nothing: the
// scheme never allocates channels for them. This is the standard
// RegisterDependences body for unicast-only direct-link schemes.
func RegisterUnicastDependences(b *Builder, s Router) error {
	w := NewWalker(s.Shape(), s.Wiring(), RouterPolicy(s))
	vertex := make([]int32, w.Channels())
	var route []int32
	visit := func(ch int32, _ *flit.Header, _ int) { route = append(route, ch) }
	var h flit.Header
	shape := s.Shape()
	for si := 0; si < shape.Size(); si++ {
		for di := 0; di < shape.Size(); di++ {
			route, h = route[:0], flit.Header{Src: shape.CoordOf(si), Dst: shape.CoordOf(di)}
			if err := w.Unicast(&h, visit); err != nil {
				if errors.Is(err, ErrUnreachable) {
					continue
				}
				return err
			}
			for i := 1; i < len(route); i++ {
				b.Edge(b.Intern(vertex, route[i-1], w.Name), b.Intern(vertex, route[i], w.Name))
			}
		}
	}
	return nil
}
