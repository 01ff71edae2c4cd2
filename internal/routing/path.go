package routing

import (
	"fmt"

	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/topo"
)

// This file answers the static route queries — a packet's element path, a
// broadcast's tree, reachability — by replaying the Policy's decisions on
// topo.Walker, the walker the machine's send-side precheck and the
// dependence prover use too. They serve route verification in tests (the
// simulated path must match the static path hop for hop) and the
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

// walker walks the policy over the single-channel MD crossbar.
func (p *Policy) walker() topo.Walker {
	return topo.NewWalker(p.shape, topo.MDCrossbar{Shape: p.shape, VCs: 1}, p)
}

// refuseSource is the NIA's refusal to send from a PE whose router is faulty.
func (p *Policy) refuseSource(src geom.Coord) error {
	if p.faults.RouterFaulty(src) {
		return fmt.Errorf("%w: source router %v faulty", ErrUnreachable, src)
	}
	return nil
}

// Sends reports whether the PE with Shape.Index i may send: UnicastHeader
// refuses every pair from a PE that may not, for one bit of the fault set.
func (p *Policy) Sends(i int) bool { return !p.faults.RouterFaultyAt(i) }

// UnicastHeader is the header a point-to-point packet from src to dst leaves
// its PE with, or the refusal of a pair outside the shape or of a faulty
// source router. Walked by topo.Walker over the policy, it is the route
// UnicastPath returns.
func (p *Policy) UnicastHeader(src, dst geom.Coord) (flit.Header, error) {
	if !p.shape.Contains(src) || !p.shape.Contains(dst) {
		return flit.Header{}, fmt.Errorf("routing: src %v or dst %v outside shape", src, dst)
	}
	return flit.Header{Src: src, Dst: dst, RC: flit.RCNormal}, p.refuseSource(src)
}

// UnicastPath statically computes the full element path of a point-to-point
// packet from src to dst, including any detour. It returns ErrUnreachable
// (wrapped) when the present faults make delivery impossible, mirroring the
// hardware "stops transmission" behavior.
func (p *Policy) UnicastPath(src, dst geom.Coord) ([]Hop, error) {
	return p.path(p.UnicastHeader(src, dst))
}

// path walks a header from its source and lists the elements it passes, up to
// a refusal.
func (p *Policy) path(h flit.Header, err error) ([]Hop, error) {
	if err != nil {
		return nil, err
	}
	w := p.walker()
	var hops []Hop
	rc := h.RC // the RC the next element sees on arrival
	err = w.Unicast(&h, func(ch int32, left *flit.Header, _ int) {
		dim, index, out := w.Port(ch)
		hop := Hop{Kind: HopRouter, RC: rc, Out: out}
		if dim < 0 {
			hop.Coord = p.shape.CoordOf(index)
		} else {
			hop.Kind, hop.Line = HopXB, p.shape.LineAt(dim, index)
		}
		rc = left.RC
		hops = append(hops, hop)
		if dim < 0 && out == p.dims {
			hops = append(hops, Hop{Kind: HopPE, Coord: hop.Coord, RC: rc, Out: -1})
		}
	})
	return hops, err
}

// Reachable reports whether a point-to-point send from src to dst would be
// delivered under the present faults: UnicastPath's error without the path.
// A pair PlainRoute serves is not walked.
func (p *Policy) Reachable(src, dst geom.Coord) error {
	h, err := p.UnicastHeader(src, dst)
	if err != nil || p.PlainRoute(src, dst) {
		return err
	}
	w := p.walker()
	return w.Unicast(&h, nil)
}

// PlainRoute reports that the dimension-order route from src to dst, both
// inside the shape, meets no faulty router or crossbar. Every decision on
// such a route is the plain dimension-order step, so the pair is served. A
// false answer decides nothing: a detour may still serve the
// pair, and only the walk refuses one. It costs one bit test per switch on
// the route, none on a fault-free network.
func (p *Policy) PlainRoute(src, dst geom.Coord) bool {
	f := p.faults
	if f.Count() == 0 {
		return true
	}
	at, pos := p.shape.Index(src), src // the route's router, advanced in place
	if f.RouterFaultyAt(at) {
		return false
	}
	stride := 1 // Shape.Index's stride of dimension k
	for k, n := range p.shape {
		if src[k] != dst[k] {
			if p.xbFaulty(pos, k) {
				return false
			}
			pos[k] = dst[k]
			if at += (dst[k] - src[k]) * stride; f.RouterFaultyAt(at) {
				return false
			}
		}
		stride *= n
	}
	return true
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

// BroadcastHeader is the header a broadcast from src leaves its PE with: a
// request for the S-XB, or in naive mode the fan itself.
func (p *Policy) BroadcastHeader(src geom.Coord) flit.Header {
	rc := flit.RCBroadcastRequest
	if p.cfg.NaiveBroadcast {
		rc = flit.RCBroadcast
	}
	return flit.Header{Src: src, BroadcastOrigin: src, RC: rc}
}

// BroadcastFrom is BroadcastHeader behind the NIA's refusals: of a source
// outside the shape, and of one whose router is faulty.
func (p *Policy) BroadcastFrom(src geom.Coord) (flit.Header, error) {
	if !p.shape.Contains(src) {
		return flit.Header{}, fmt.Errorf("routing: src %v outside shape", src)
	}
	return p.BroadcastHeader(src), p.refuseSource(src)
}

// BroadcastTree statically expands the broadcast of one packet from src:
// through the S-XB in the serialized scheme, or the source-rooted tree in
// naive mode. It returns ErrUnreachable when the source cannot reach the
// serialization point: a faulty source router, or any refused step of the
// request leg (topo.Walker.Broadcast's rule).
func (p *Policy) BroadcastTree(src geom.Coord) (BroadcastResult, error) {
	res := BroadcastResult{Delivered: map[geom.Coord]int{}, Elements: 1}
	h, err := p.BroadcastFrom(src)
	if err != nil {
		return res, err
	}
	w := p.walker()
	res.DeadBranches, err = w.Broadcast(&h, func(ch int32, _ *flit.Header, depth int) {
		dim, index, out := w.Port(ch)
		if dim < 0 && out == p.dims {
			res.Delivered[p.shape.CoordOf(index)]++
			return
		}
		res.Elements++
		res.Depth = max(res.Depth, depth+1)
	})
	return res, err
}
