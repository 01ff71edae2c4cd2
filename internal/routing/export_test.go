package routing

import (
	"fmt"

	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

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

// walkHeader is the walker routing had before topo.Walker: it calls the
// policy's own routeRouter/routeXB and applies their rewrite to the header in
// place, never going through an engine.Decision. It is the oracle the one
// walker, which walks the switches' decisions, and the PlainRoute precheck
// in front of it are held to.
func walkHeader(p *Policy, src geom.Coord, h *flit.Header) ([]Hop, error) {
	if p.faults.RouterFaulty(src) {
		return nil, fmt.Errorf("%w: source router %v faulty", ErrUnreachable, src)
	}
	var hops []Hop
	atRouter, coord, in := true, src, p.dims
	var line geom.Line
	for steps := 0; steps < 8*p.dims+16; steps++ {
		if atRouter {
			outs, w, why := p.routeRouter(coord, in, h)
			if err := why.err(p.shape); err != nil {
				return hops, err
			}
			if len(outs) != 1 {
				return hops, fmt.Errorf("routing: unicast fan-out at router %v", coord)
			}
			out := outs[0]
			hops = append(hops, Hop{Kind: HopRouter, Coord: coord, RC: h.RC, Out: out})
			w.Apply(h)
			if out == p.dims {
				hops = append(hops, Hop{Kind: HopPE, Coord: coord, RC: h.RC, Out: -1})
				if coord != h.Dst {
					return hops, fmt.Errorf("routing: delivered to %v, wanted %v", coord, h.Dst)
				}
				return hops, nil
			}
			line, in, atRouter = geom.LineOf(coord, out), coord[out], false
		} else {
			outs, w, why := p.routeXB(line, in, h)
			if err := why.err(p.shape); err != nil {
				return hops, err
			}
			if len(outs) != 1 {
				return hops, fmt.Errorf("routing: unicast fan-out at crossbar %v", line)
			}
			out := outs[0]
			hops = append(hops, Hop{Kind: HopXB, Line: line, RC: h.RC, Out: out})
			w.Apply(h)
			coord, in, atRouter = line.Point(out), line.Dim, true
		}
	}
	return hops, fmt.Errorf("routing: path from %v exceeded %d hops (routing loop?)", src, 8*p.dims+16)
}
