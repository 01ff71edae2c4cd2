package routing

import (
	"fmt"

	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// This file provides static path walkers: they replay the exact switch
// decisions of the Policy without running the simulator. They serve three
// purposes: reachability prechecks at the send API (the NIA refusing
// transmission to unreachable PEs), route verification in tests (the
// simulated path must match the static path hop for hop), and the
// figure-level walkthrough tool (cmd/mdxtrace).

// HopKind classifies a path element.
type HopKind uint8

const (
	// HopRouter is a relay switch (RTC).
	HopRouter HopKind = iota
	// HopXB is a crossbar switch.
	HopXB
	// HopPE is the final delivery into a processing element.
	HopPE
)

// String names the hop kind.
func (k HopKind) String() string {
	switch k {
	case HopRouter:
		return "RTC"
	case HopXB:
		return "XB"
	case HopPE:
		return "PE"
	default:
		return fmt.Sprintf("HopKind(%d)", uint8(k))
	}
}

// Hop is one element on a packet's path.
type Hop struct {
	Kind HopKind
	// Coord locates a router or PE hop.
	Coord geom.Coord
	// Line identifies a crossbar hop.
	Line geom.Line
	// RC is the packet's route-change bit on arrival at this element.
	RC flit.RC
	// Out is the output port chosen (-1 at the final PE).
	Out int
}

// String renders the hop, e.g. "RTC(1,2)[detour]->0".
func (h Hop) String() string {
	var where string
	switch h.Kind {
	case HopRouter:
		where = "RTC" + h.Coord.String()
	case HopXB:
		where = fmt.Sprintf("XB%d%s", h.Line.Dim, h.Line.Fixed.String())
	case HopPE:
		return "PE" + h.Coord.String()
	}
	return fmt.Sprintf("%s[%s]->%d", where, h.RC, h.Out)
}

// maxWalkHops bounds path walks against routing-loop bugs.
func (p *Policy) maxWalkHops() int { return 8*p.dims + 16 }

// UnicastPath statically computes the full element path of a point-to-point
// packet from src to dst, including any detour. It returns ErrUnreachable
// (wrapped) when the present faults make delivery impossible, mirroring the
// hardware "stops transmission" behavior.
func (p *Policy) UnicastPath(src, dst geom.Coord) ([]Hop, error) {
	var hops []Hop
	err := p.walkUnicast(src, dst, walkSink{hops: &hops})
	return hops, err
}

// ChannelVisitor receives the out-port channels of a static walk, in
// traversal order, by the switch's dense number: a router is dim -1 and its
// Shape.Index, a crossbar its dimension and Shape.LineIndex.
type ChannelVisitor func(dim, index, out int)

// walkSink is where a static walk reports the switches it passes: as Hops
// (UnicastPath), as channels (the dependence prover) or, empty, nowhere
// (Reachable). The decisions, and the error, are the same either way.
type walkSink struct {
	hops     *[]Hop
	channels ChannelVisitor
}

// walkUnicast checks the pair and walks a plain unicast header between them.
func (p *Policy) walkUnicast(src, dst geom.Coord, to walkSink) error {
	if !p.shape.Contains(src) || !p.shape.Contains(dst) {
		return fmt.Errorf("routing: src %v or dst %v outside shape", src, dst)
	}
	h := flit.Header{Src: src, Dst: dst, RC: flit.RCNormal}
	return p.walkHeader(src, &h, to)
}

// walkHeader replays the policy decisions for one unicast header injected at
// src, following RC and two-phase rewrites (applied to *h in place), until PE
// delivery, reporting the elements to the sink.
func (p *Policy) walkHeader(src geom.Coord, h *flit.Header, to walkSink) error {
	if p.faults.RouterFaulty(src) {
		return fmt.Errorf("%w: source router %v faulty", ErrUnreachable, src)
	}
	atRouter := true
	coord := src
	var line geom.Line
	in := p.dims // from PE
	for steps := 0; steps < p.maxWalkHops(); steps++ {
		if atRouter {
			outs, x, err := p.routeRouter(coord, in, h)
			if err != nil {
				return err
			}
			if len(outs) != 1 {
				return fmt.Errorf("routing: unicast fan-out at router %v", coord)
			}
			out := outs[0]
			if to.hops != nil {
				*to.hops = append(*to.hops, Hop{Kind: HopRouter, Coord: coord, RC: h.RC, Out: out})
			}
			if to.channels != nil {
				to.channels(-1, p.shape.Index(coord), out)
			}
			x.apply(h)
			if out == p.dims {
				if to.hops != nil {
					*to.hops = append(*to.hops, Hop{Kind: HopPE, Coord: coord, RC: h.RC, Out: -1})
				}
				if coord != h.Dst {
					return fmt.Errorf("routing: delivered to %v, wanted %v", coord, h.Dst)
				}
				return nil
			}
			line = geom.LineOf(coord, out)
			in = coord[out]
			atRouter = false
		} else {
			outs, x, err := p.routeXB(line, in, h)
			if err != nil {
				return err
			}
			if len(outs) != 1 {
				return fmt.Errorf("routing: unicast fan-out at crossbar %v", line)
			}
			out := outs[0]
			if to.hops != nil {
				*to.hops = append(*to.hops, Hop{Kind: HopXB, Line: line, RC: h.RC, Out: out})
			}
			if to.channels != nil {
				to.channels(line.Dim, p.shape.LineIndex(line), out)
			}
			x.apply(h)
			coord = line.Point(out)
			in = line.Dim
			atRouter = true
		}
	}
	return fmt.Errorf("routing: path from %v exceeded %d hops (routing loop?)", src, p.maxWalkHops())
}

// UnicastChannels walks the route UnicastPath would return and reports its
// channels to visit without building the path; the error is UnicastPath's.
// Channels are reported as the walk goes, so on an error the caller has
// seen the prefix the refused route got to.
func (p *Policy) UnicastChannels(src, dst geom.Coord, visit ChannelVisitor) error {
	return p.walkUnicast(src, dst, walkSink{channels: visit})
}

// PivotEnabled reports whether the two-phase pivot extension is configured.
func (p *Policy) PivotEnabled() bool { return p.cfg.PivotLastDim }

// PivotIntermediate selects the intermediate router for a two-phase pivot
// send to dst: a healthy router on dst's dim-0 line whose own last-dimension
// crossbar is healthy. It applies only on 2D networks when dst sits behind a
// faulty last-dimension crossbar; ok is false otherwise.
func (p *Policy) PivotIntermediate(src, dst geom.Coord) (geom.Coord, bool) {
	if !p.cfg.PivotLastDim || p.dims != 2 {
		return geom.Coord{}, false
	}
	if !p.faults.XBFaulty(geom.LineOf(dst, 1)) || p.faults.RouterFaulty(dst) {
		return geom.Coord{}, false
	}
	if src[1] == dst[1] {
		return geom.Coord{}, false // plain dim-0 route works already
	}
	// The final leg rides dst's dim-0 crossbar; it must be healthy.
	if p.faults.XBFaulty(geom.LineOf(dst, 0)) {
		return geom.Coord{}, false
	}
	for v := 0; v < p.shape[0]; v++ {
		if v == dst[0] {
			continue
		}
		cand := dst.WithDim(0, v)
		if p.faults.RouterFaulty(cand) || p.faults.XBFaulty(geom.LineOf(cand, 1)) {
			continue
		}
		return cand, true
	}
	return geom.Coord{}, false
}

// PivotPath computes the two-phase route src -> intermediate -> dst, or
// ErrUnreachable when no valid intermediate exists.
func (p *Policy) PivotPath(src, dst geom.Coord) ([]Hop, error) {
	var hops []Hop
	err := p.walkPivot(src, dst, walkSink{hops: &hops})
	return hops, err
}

// PivotChannels is PivotPath in UnicastChannels' form.
func (p *Policy) PivotChannels(src, dst geom.Coord, visit ChannelVisitor) error {
	return p.walkPivot(src, dst, walkSink{channels: visit})
}

func (p *Policy) walkPivot(src, dst geom.Coord, to walkSink) error {
	mid, ok := p.PivotIntermediate(src, dst)
	if !ok {
		return fmt.Errorf("%w: no pivot intermediate for %v -> %v", ErrUnreachable, src, dst)
	}
	h := flit.Header{Src: src, Dst: mid, FinalDst: dst, TwoPhase: true, RC: flit.RCNormal}
	return p.walkHeader(src, &h, to)
}

// Reachable reports whether a point-to-point send from src to dst would be
// delivered under the present faults: UnicastPath's error without the path.
// A served pair costs no allocation.
func (p *Policy) Reachable(src, dst geom.Coord) error {
	return p.walkUnicast(src, dst, walkSink{})
}

// CrossbarHops counts the crossbar traversals on the path (the paper's hop
// metric: "any two PEs communicate with a maximum of d hops").
func CrossbarHops(path []Hop) int {
	n := 0
	for _, h := range path {
		if h.Kind == HopXB {
			n++
		}
	}
	return n
}

// DetourLength counts the hops traveled with RC=detour.
func DetourLength(path []Hop) int {
	n := 0
	for _, h := range path {
		if h.RC == flit.RCDetour {
			n++
		}
	}
	return n
}

// BroadcastResult summarizes the static fan-out tree of one broadcast.
type BroadcastResult struct {
	// Delivered counts copies received per PE coordinate. The correctness
	// invariant is exactly one copy per healthy PE (faulty-router PEs are
	// cut off, and PEs behind a faulty crossbar may be unreachable).
	Delivered map[geom.Coord]int
	// Elements is the total number of switch traversals in the tree.
	Elements int
	// Depth is the longest element chain from the source to any PE.
	Depth int
	// DeadBranches counts fan branches that ended in a routing error
	// (possible only in over-faulted networks).
	DeadBranches int
}

// BroadcastTree statically expands the broadcast of one packet from src:
// through the S-XB in the serialized scheme, or the source-rooted tree in
// naive mode. It returns ErrUnreachable when the source cannot reach the
// serialization point: a faulty source router, or any refused step of the
// request leg (WalkBroadcast's rule).
func (p *Policy) BroadcastTree(src geom.Coord) (BroadcastResult, error) {
	res := BroadcastResult{Delivered: map[geom.Coord]int{}, Elements: 1}
	if !p.shape.Contains(src) {
		return res, fmt.Errorf("routing: src %v outside shape", src)
	}
	if p.faults.RouterFaulty(src) {
		return res, fmt.Errorf("%w: source router %v faulty", ErrUnreachable, src)
	}
	var err error
	res.DeadBranches, err = p.WalkBroadcast(src, &BroadcastWalk{}, func(dim, index, out int, _ *flit.Header, depth int) {
		if dim < 0 && out == p.dims {
			res.Delivered[p.shape.CoordOf(index)]++
			return
		}
		res.Elements++
		res.Depth = max(res.Depth, depth+1)
	})
	return res, err
}

// BroadcastVisitor receives the out-ports of a broadcast walk as
// ChannelVisitor does, with the header the copy leaves on (valid only
// during the call) and the depth of the switch it leaves: 0 at the source
// router, one more per switch.
type BroadcastVisitor func(dim, index, out int, h *flit.Header, depth int)

// BroadcastWalk is WalkBroadcast's queue, owned by the caller so that
// repeated walks reuse it. The zero value is ready to use.
type BroadcastWalk struct {
	queue   []fanNode
	headers []flit.Header // the walk's distinct headers; a node holds an index
}

// fanNode is one switch arrival of a broadcast walk.
type fanNode struct {
	atRouter  bool
	coord     geom.Coord
	line      geom.Line
	in, depth int
	h         int
}

// WalkBroadcast replays the policy's broadcast decisions from src breadth
// first, reporting every out-port taken to visit. A refused decision on a
// request-class header refuses the broadcast — the source cannot reach the
// serialization point — and returns the error; any other refusal is a dead
// fan branch (possible only in an over-faulted network), counted in dead.
// The source router's own health is the caller's to check.
func (p *Policy) WalkBroadcast(src geom.Coord, w *BroadcastWalk, visit BroadcastVisitor) (dead int, err error) {
	rc := flit.RCBroadcastRequest
	if p.cfg.NaiveBroadcast {
		rc = flit.RCBroadcast
	}
	w.headers = append(w.headers[:0], flit.Header{Src: src, BroadcastOrigin: src, RC: rc})
	w.queue = append(w.queue[:0], fanNode{atRouter: true, coord: src, in: p.dims})
	limit := p.shape.Size()*(p.dims+2)*4 + 64
	for next := 0; next < len(w.queue); next++ {
		if next >= limit {
			return dead, fmt.Errorf("routing: broadcast walk from %v exceeded %d steps (routing loop?)", src, limit)
		}
		nd := w.queue[next]
		var outs []int
		var x xform
		dim, index := -1, 0
		if nd.atRouter {
			outs, x, err = p.routeRouter(nd.coord, nd.in, &w.headers[nd.h])
			index = p.shape.Index(nd.coord)
		} else {
			outs, x, err = p.routeXB(nd.line, nd.in, &w.headers[nd.h])
			dim, index = nd.line.Dim, p.shape.LineIndex(nd.line)
		}
		if err != nil {
			if w.headers[nd.h].RC == flit.RCBroadcastRequest {
				return dead, err
			}
			dead++
			continue
		}
		h := nd.h
		if x != xNone {
			w.headers = append(w.headers, w.headers[h])
			h = len(w.headers) - 1
			x.apply(&w.headers[h])
		}
		for _, out := range outs {
			visit(dim, index, out, &w.headers[h], nd.depth)
			switch {
			case nd.atRouter && out == p.dims: // delivered to the PE
			case nd.atRouter:
				w.queue = append(w.queue, fanNode{line: geom.LineOf(nd.coord, out), in: nd.coord[out], depth: nd.depth + 1, h: h})
			default:
				w.queue = append(w.queue, fanNode{atRouter: true, coord: nd.line.Point(out), in: nd.line.Dim, depth: nd.depth + 1, h: h})
			}
		}
	}
	return dead, nil
}
