package routing

import (
	"fmt"

	"sr2201/internal/engine"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/topo"
)

// TablePolicy is a compiled, lookup-table implementation of a routing
// Policy — the way such routing is realized in hardware (compare the CRAY
// T3D's "routing tag look-up table" the paper discusses): every decision a
// switch can face is precomputed into tables indexed by the packet's RC
// class, input port and the part of the destination the decision reads.
// Compile verifies nothing at runtime; the tables replay exactly what the
// algorithmic policy decided at compile time, including RC-bit transitions
// and refusals.
//
// A dimension-order decision reads one coordinate of the destination, so a
// row costs what the paper's switches hold, not one entry per PE:
//
//   - a router's normal class is indexed by the first dimension in which the
//     destination differs from the router (d+1 entries, the last for "none:
//     deliver");
//   - a crossbar's normal class is indexed by the destination's coordinate
//     along the crossbar's own line (n_k entries), and so is the detour
//     class of a dim-0 crossbar (the D-XB resets RC and routes by dst[0]); a
//     higher-dimension crossbar forwards every detour packet to the D line,
//     one entry;
//   - request, detour-at-router and broadcast rows never read the
//     destination.
//
// The exceptions are exactly the switches wired to a fault — the paper's
// "fault bits of physically connected switches" — and each reads the one
// small class more that its closed form reads (DESIGN §15):
//
//   - a router with a faulty crossbar holds a second row atD (d entries):
//     whether the detour rides its faulty dim-k crossbar again reads only
//     the bit dst[k] = D[k], and atD[k] serves the destinations on it;
//   - a crossbar with a faulty router b holds prefix[b's port] (d+1
//     entries): whether the packet is b's, and else whether the detour
//     re-enters b, reads only the length of dst's common prefix with b.
//
// No row is as long as the machine; TestTableEquivalenceExhaustive checks
// every row decision by decision against the algorithmic policy.
type TablePolicy struct {
	shape geom.Shape
	dims  int
	// dLine is the effective D line's fixed coordinates, which atD reads.
	dLine geom.Coord

	// routers[idx] holds the per-router tables.
	routers []routerTable
	// xbs[dim][lineIdx] holds the per-crossbar tables.
	xbs [][]xbTable
}

var _ topo.Policy = (*TablePolicy)(nil)

// entry is one precomputed decision: the output ports and the header rewrite
// on the forwarded copies, or the refusal, formatted only when its error's
// text is read.
type entry struct {
	outs []int
	w    flit.Rewrite
	why  refusal
}

// decision is entry e as the kernel's decision. It tests for a refusal
// itself rather than through refusal.err, which keeps it within the
// inliner's budget: every table lookup ends here.
func (tp *TablePolicy) decision(e *entry) (engine.Decision, error) {
	if e.why.rule != 0 {
		return engine.Decision{}, refusalError{e.why, tp.shape}
	}
	return engine.Decision{Outs: e.outs, Rewrite: e.w}, nil
}

type routerTable struct {
	// normal[k] serves destinations first differing in dimension k, and
	// normal[dims] the router's own PE. When the router has a faulty
	// crossbar, atD[k] serves those of them whose coordinate k is the D
	// line's instead. detour and request are destination-independent; bcast
	// is indexed by input port.
	normal  []entry
	atD     []entry
	detour  entry
	request entry
	bcast   []entry
}

type xbTable struct {
	// normal[v] serves destinations at coordinate v along the line, unless
	// the router at port v is faulty: prefix[v] serves those, indexed by
	// the length of their common prefix with it. detour is indexed like
	// normal on a dim-0 crossbar and has one entry on the others. request is
	// destination-independent; bcast is indexed by input port.
	normal  []entry
	prefix  [][]entry
	detour  []entry
	request entry
	bcast   []entry
}

// Compile builds the lookup tables for every switch decision of p.
func Compile(p *Policy) (*TablePolicy, error) {
	shape := p.shape
	d := p.dims
	n := shape.Size()
	tp := &TablePolicy{shape: shape, dims: d, dLine: p.dEff}
	router := func(c geom.Coord, in int, h flit.Header) entry {
		outs, w, why := p.routeRouter(c, in, &h)
		return entry{outs, w, why}
	}
	xb := func(l geom.Line, in int, h flit.Header) entry {
		outs, w, why := p.routeXB(l, in, &h)
		return entry{outs, w, why}
	}
	to := func(dst geom.Coord) flit.Header { return flit.Header{RC: flit.RCNormal, Dst: dst} }

	// The rows every switch holds are carved from one array; only the class
	// rows of fault-adjacent switches are allocated on their own.
	size := n * 2 * (d + 1)
	for dim, extent := range shape {
		detours := 1
		if dim == 0 {
			detours = extent
		}
		size += shape.LineCount(dim) * (2*extent + detours)
	}
	rows := make([]entry, size)
	row := func(k int) []entry {
		r := rows[:k:k]
		rows = rows[k:]
		return r
	}

	// Router tables.
	tp.routers = make([]routerTable, n)
	for idx := range tp.routers {
		c := shape.CoordOf(idx)
		rt := routerTable{
			normal:  row(d + 1),
			detour:  router(c, 0, flit.Header{RC: flit.RCDetour}),
			request: router(c, d, flit.Header{RC: flit.RCBroadcastRequest}),
			bcast:   row(d + 1),
		}
		for k := 0; k < d; k++ {
			// Any destination first differing in dimension k stands for its
			// class: one off the D line's coordinate k for normal, one on it
			// for atD. A class with no destination is never read.
			v := (c[k] + 1) % shape[k]
			if v == p.dEff[k] && shape[k] > 2 {
				v = (v + 1) % shape[k]
			}
			rt.normal[k] = router(c, d, to(c.WithDim(k, v)))
			if rt.atD == nil && p.faults.XBFaulty(geom.LineOf(c, k)) {
				rt.atD = make([]entry, d)
			}
		}
		for k := range rt.atD {
			rt.atD[k] = router(c, d, to(c.WithDim(k, p.dEff[k])))
		}
		rt.normal[d] = router(c, d, to(c))
		for in := range rt.bcast {
			rt.bcast[in] = router(c, in, flit.Header{RC: flit.RCBroadcast})
		}
		tp.routers[idx] = rt
	}

	// Crossbar tables.
	tp.xbs = make([][]xbTable, d)
	for dim := 0; dim < d; dim++ {
		ports := shape[dim]
		tp.xbs[dim] = make([]xbTable, shape.LineCount(dim))
		for li := range tp.xbs[dim] {
			l := shape.LineAt(dim, li)
			detours := 1
			if dim == 0 {
				detours = ports
			}
			xt := xbTable{
				normal:  row(ports),
				detour:  row(detours),
				request: xb(l, 0, flit.Header{RC: flit.RCBroadcastRequest}),
				bcast:   row(ports),
			}
			for v := 0; v < ports; v++ {
				at := l.Point(v)
				xt.normal[v] = xb(l, 0, to(at))
				if v < len(xt.detour) {
					xt.detour[v] = xb(l, 0, flit.Header{RC: flit.RCDetour, Dst: at})
				}
				xt.bcast[v] = xb(l, v, flit.Header{RC: flit.RCBroadcast})
				if !p.faults.RouterFaulty(at) {
					continue
				}
				if xt.prefix == nil {
					xt.prefix = make([][]entry, ports)
				}
				// A destination first differing from the faulty router in
				// dimension P stands for class P; class d is the router.
				row := make([]entry, d+1)
				for P := 0; P < d; P++ {
					row[P] = xb(l, 0, to(at.WithDim(P, (at[P]+1)%shape[P])))
				}
				row[d] = xt.normal[v]
				xt.prefix[v] = row
			}
			tp.xbs[dim][li] = xt
		}
	}
	return tp, nil
}

// RouteRouter implements topo.Policy by table lookup.
func (tp *TablePolicy) RouteRouter(net *topo.Net, c geom.Coord, in int, h *flit.Header) (engine.Decision, error) {
	rt := &tp.routers[tp.shape.Index(c)]
	switch h.RC {
	case flit.RCNormal:
		k := c.FirstDiff(h.Dst, tp.dims)
		if k < 0 {
			k = tp.dims
		} else if rt.atD != nil && h.Dst[k] == tp.dLine[k] {
			return tp.decision(&rt.atD[k])
		}
		return tp.decision(&rt.normal[k])
	case flit.RCDetour:
		return tp.decision(&rt.detour)
	case flit.RCBroadcastRequest:
		return tp.decision(&rt.request)
	case flit.RCBroadcast:
		return tp.decision(&rt.bcast[in])
	}
	return engine.Decision{}, fmt.Errorf("routing: table policy cannot handle RC %v", h.RC)
}

// RouteXB implements topo.Policy by table lookup.
func (tp *TablePolicy) RouteXB(net *topo.Net, l geom.Line, in int, h *flit.Header) (engine.Decision, error) {
	xt := &tp.xbs[l.Dim][tp.shape.LineIndex(l)]
	switch h.RC {
	case flit.RCNormal:
		v := h.Dst[l.Dim]
		if xt.prefix != nil && xt.prefix[v] != nil {
			P := l.Point(v).FirstDiff(h.Dst, tp.dims)
			if P < 0 {
				P = tp.dims
			}
			return tp.decision(&xt.prefix[v][P])
		}
		return tp.decision(&xt.normal[v])
	case flit.RCDetour:
		if l.Dim == 0 {
			return tp.decision(&xt.detour[h.Dst[0]])
		}
		return tp.decision(&xt.detour[0])
	case flit.RCBroadcastRequest:
		return tp.decision(&xt.request)
	case flit.RCBroadcast:
		return tp.decision(&xt.bcast[in])
	}
	return engine.Decision{}, fmt.Errorf("routing: table policy cannot handle RC %v", h.RC)
}

// Entries reports the total number of table entries — the "routing table
// size" hardware cost the paper's minimal-information design avoids.
func (tp *TablePolicy) Entries() int {
	total := 0
	for _, rt := range tp.routers {
		total += len(rt.normal) + len(rt.atD) + len(rt.bcast) + 2
	}
	for _, xs := range tp.xbs {
		for _, xt := range xs {
			total += len(xt.normal) + len(xt.detour) + len(xt.bcast) + 1
			for _, row := range xt.prefix {
				total += len(row)
			}
		}
	}
	return total
}
