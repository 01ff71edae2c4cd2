package routing

import (
	"fmt"

	"sr2201/internal/engine"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/mdxb"
)

// TablePolicy is a compiled, lookup-table implementation of a routing
// Policy — the way such routing is realized in hardware (compare the CRAY
// T3D's "routing tag look-up table" the paper discusses): every decision a
// switch can face is precomputed into dense tables indexed by the packet's
// RC class, destination and input port. Compile verifies nothing at
// runtime; the tables replay exactly what the algorithmic policy decided at
// compile time, including RC-bit transitions and refusals.
//
// The two-phase pivot extension is not table-compilable (its decisions
// depend on two addresses) and is rejected by Compile — a faithful
// restriction: the hardware had no such header bits either.
type TablePolicy struct {
	shape  geom.Shape
	dims   int
	netCap int // number of PEs / destination indices

	// routers[idx] holds the per-router tables.
	routers []routerTable
	// xbs[dim][lineIdx] holds the per-crossbar tables.
	xbs [][]xbTable
}

var _ mdxb.Policy = (*TablePolicy)(nil)

// entry is one precomputed decision: the output ports and the header rewrite
// on the forwarded copies, or the refusal.
type entry struct {
	outs []int
	x    xform
	err  error
}

func (e entry) decision() (engine.Decision, error) { return decision(e.outs, e.x, e.err) }

type routerTable struct {
	// normal[dstIdx] and detour (destination-independent), request
	// (destination-independent), bcast[in].
	normal  []entry
	detour  entry
	request entry
	bcast   []entry
}

type xbTable struct {
	// normal[dstIdx], detour[dstIdx] (the D-XB resets and routes by dst),
	// request (destination-independent), bcast[in].
	normal  []entry
	detour  []entry
	request entry
	bcast   []entry
}

// Compile builds the lookup tables for every switch decision of p.
func Compile(p *Policy) (*TablePolicy, error) {
	if p.PivotEnabled() {
		return nil, fmt.Errorf("routing: the pivot extension is not table-compilable")
	}
	shape := p.shape
	d := p.dims
	n := shape.Size()
	tp := &TablePolicy{shape: shape, dims: d, netCap: n}

	// Router tables.
	tp.routers = make([]routerTable, n)
	for idx := 0; idx < n; idx++ {
		c := shape.CoordOf(idx)
		rt := routerTable{
			normal: make([]entry, n),
			bcast:  make([]entry, d+1),
		}
		for di := 0; di < n; di++ {
			h := &flit.Header{RC: flit.RCNormal, Dst: shape.CoordOf(di)}
			outs, x, err := p.routeRouter(c, d, h)
			rt.normal[di] = entry{outs, x, err}
		}
		{
			h := &flit.Header{RC: flit.RCDetour}
			outs, x, err := p.routeRouter(c, 0, h)
			rt.detour = entry{outs, x, err}
		}
		{
			h := &flit.Header{RC: flit.RCBroadcastRequest}
			outs, x, err := p.routeRouter(c, d, h)
			rt.request = entry{outs, x, err}
		}
		for in := 0; in <= d; in++ {
			h := &flit.Header{RC: flit.RCBroadcast}
			outs, x, err := p.routeRouter(c, in, h)
			rt.bcast[in] = entry{outs, x, err}
		}
		tp.routers[idx] = rt
	}

	// Crossbar tables.
	tp.xbs = make([][]xbTable, d)
	for dim := 0; dim < d; dim++ {
		lines := shape.LinesAlong(dim)
		tp.xbs[dim] = make([]xbTable, len(lines))
		for _, l := range lines {
			ports := shape[dim]
			xt := xbTable{
				normal: make([]entry, n),
				detour: make([]entry, n),
				bcast:  make([]entry, ports),
			}
			for di := 0; di < n; di++ {
				hN := &flit.Header{RC: flit.RCNormal, Dst: shape.CoordOf(di)}
				outs, x, err := p.routeXB(l, 0, hN)
				xt.normal[di] = entry{outs, x, err}
				hD := &flit.Header{RC: flit.RCDetour, Dst: shape.CoordOf(di)}
				outs, x, err = p.routeXB(l, 0, hD)
				xt.detour[di] = entry{outs, x, err}
			}
			{
				h := &flit.Header{RC: flit.RCBroadcastRequest}
				outs, x, err := p.routeXB(l, 0, h)
				xt.request = entry{outs, x, err}
			}
			for in := 0; in < ports; in++ {
				h := &flit.Header{RC: flit.RCBroadcast}
				outs, x, err := p.routeXB(l, in, h)
				xt.bcast[in] = entry{outs, x, err}
			}
			tp.xbs[dim][shape.LineIndex(l)] = xt
		}
	}
	return tp, nil
}

// RouteRouter implements mdxb.Policy by table lookup.
func (tp *TablePolicy) RouteRouter(net *mdxb.Network, c geom.Coord, in int, h *flit.Header) (engine.Decision, error) {
	if h.TwoPhase {
		return engine.Decision{}, fmt.Errorf("routing: table policy cannot route two-phase headers")
	}
	rt := &tp.routers[tp.shape.Index(c)]
	switch h.RC {
	case flit.RCNormal:
		return rt.normal[tp.shape.Index(h.Dst)].decision()
	case flit.RCDetour:
		return rt.detour.decision()
	case flit.RCBroadcastRequest:
		return rt.request.decision()
	case flit.RCBroadcast:
		return rt.bcast[in].decision()
	}
	return engine.Decision{}, fmt.Errorf("routing: table policy cannot handle RC %v", h.RC)
}

// RouteXB implements mdxb.Policy by table lookup.
func (tp *TablePolicy) RouteXB(net *mdxb.Network, l geom.Line, in int, h *flit.Header) (engine.Decision, error) {
	xt := &tp.xbs[l.Dim][tp.shape.LineIndex(l)]
	switch h.RC {
	case flit.RCNormal:
		return xt.normal[tp.shape.Index(h.Dst)].decision()
	case flit.RCDetour:
		return xt.detour[tp.shape.Index(h.Dst)].decision()
	case flit.RCBroadcastRequest:
		return xt.request.decision()
	case flit.RCBroadcast:
		return xt.bcast[in].decision()
	}
	return engine.Decision{}, fmt.Errorf("routing: table policy cannot handle RC %v", h.RC)
}

// Entries reports the total number of table entries — the "routing table
// size" hardware cost the paper's minimal-information design avoids.
func (tp *TablePolicy) Entries() int {
	total := 0
	for _, rt := range tp.routers {
		total += len(rt.normal) + len(rt.bcast) + 2
	}
	for _, xs := range tp.xbs {
		for _, xt := range xs {
			total += len(xt.normal) + len(xt.detour) + len(xt.bcast) + 1
		}
	}
	return total
}
