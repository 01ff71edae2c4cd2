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
// "fault bits of physically connected switches". A router with a faulty
// crossbar must decide, for packets that need that crossbar, whether the
// detour would ride it again, and a crossbar with a faulty router, for
// packets exiting there, whether the packet is for that router or whether
// the detour re-enters it; both questions read the whole destination. Those
// switches alone carry a dense per-destination row (full) that replaces the
// structured one. Nothing else in routerNormal or xbNormal looks past the
// one coordinate unless such a fault bit is set, which is why the override
// is complete; TestTableEquivalenceExhaustive checks it decision by decision.
type TablePolicy struct {
	shape geom.Shape
	dims  int

	// routers[idx] holds the per-router tables.
	routers []routerTable
	// xbs[dim][lineIdx] holds the per-crossbar tables.
	xbs [][]xbTable
}

var _ topo.Policy = (*TablePolicy)(nil)

// entry is one precomputed decision: the output ports and the header rewrite
// on the forwarded copies, or the refusal, rendered only when a packet meets
// it.
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
		return engine.Decision{}, e.why.render(tp.shape)
	}
	return engine.Decision{Outs: e.outs, Rewrite: e.w}, nil
}

type routerTable struct {
	// normal[k] serves destinations first differing in dimension k, and
	// normal[dims] the router's own PE; full[dstIdx], when the router has a
	// faulty crossbar, serves them all instead. detour and request are
	// destination-independent; bcast is indexed by input port.
	normal  []entry
	full    []entry
	detour  entry
	request entry
	bcast   []entry
}

type xbTable struct {
	// normal[v] serves destinations at coordinate v along the line;
	// full[dstIdx], when a router on the line is faulty, serves them all
	// instead. detour is indexed the same way on a dim-0 crossbar and has
	// one entry on the others. request is destination-independent; bcast is
	// indexed by input port.
	normal  []entry
	full    []entry
	detour  []entry
	request entry
	bcast   []entry
}

// Compile builds the lookup tables for every switch decision of p.
func Compile(p *Policy) (*TablePolicy, error) {
	shape := p.shape
	d := p.dims
	n := shape.Size()
	tp := &TablePolicy{shape: shape, dims: d}
	router := func(c geom.Coord, in int, h flit.Header) entry {
		outs, w, why := p.routeRouter(c, in, &h)
		return entry{outs, w, why}
	}
	xb := func(l geom.Line, in int, h flit.Header) entry {
		outs, w, why := p.routeXB(l, in, &h)
		return entry{outs, w, why}
	}
	// perDestination is the dense override row of a fault-adjacent switch.
	perDestination := func(route func(h flit.Header) entry) []entry {
		row := make([]entry, n)
		for di := range row {
			row[di] = route(flit.Header{RC: flit.RCNormal, Dst: shape.CoordOf(di)})
		}
		return row
	}

	// The structured rows are carved from one array; only the dense rows of
	// fault-adjacent switches are allocated on their own.
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
		faultyXB := false
		for k := 0; k < d; k++ {
			faultyXB = faultyXB || p.faults.XBFaulty(geom.LineOf(c, k))
			// Any destination first differing in dimension k stands for all
			// of them; an extent-1 dimension has none and its entry is never
			// read.
			dst := c.WithDim(k, (c[k]+1)%shape[k])
			rt.normal[k] = router(c, d, flit.Header{RC: flit.RCNormal, Dst: dst})
		}
		rt.normal[d] = router(c, d, flit.Header{RC: flit.RCNormal, Dst: c})
		if faultyXB {
			rt.full = perDestination(func(h flit.Header) entry { return router(c, d, h) })
		}
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
			faultyRouter := false
			for v := 0; v < ports; v++ {
				at := l.Point(v)
				faultyRouter = faultyRouter || p.faults.RouterFaulty(at)
				xt.normal[v] = xb(l, 0, flit.Header{RC: flit.RCNormal, Dst: at})
				if v < len(xt.detour) {
					xt.detour[v] = xb(l, 0, flit.Header{RC: flit.RCDetour, Dst: at})
				}
				xt.bcast[v] = xb(l, v, flit.Header{RC: flit.RCBroadcast})
			}
			if faultyRouter {
				xt.full = perDestination(func(h flit.Header) entry { return xb(l, 0, h) })
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
		if rt.full != nil {
			return tp.decision(&rt.full[tp.shape.Index(h.Dst)])
		}
		k := c.FirstDiff(h.Dst, tp.dims)
		if k < 0 {
			k = tp.dims
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
		if xt.full != nil {
			return tp.decision(&xt.full[tp.shape.Index(h.Dst)])
		}
		return tp.decision(&xt.normal[h.Dst[l.Dim]])
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
		total += len(rt.normal) + len(rt.full) + len(rt.bcast) + 2
	}
	for _, xs := range tp.xbs {
		for _, xt := range xs {
			total += len(xt.normal) + len(xt.full) + len(xt.detour) + len(xt.bcast) + 1
		}
	}
	return total
}
