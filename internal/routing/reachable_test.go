package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// walkHeader is the walker routing had before topo.Walker: it calls the
// policy's own routeRouter/routeXB and applies their rewrite to the header in
// place, never going through an engine.Decision. It is the oracle the one
// walker, which walks the switches' decisions, is held to.
func walkHeader(p *Policy, src geom.Coord, h *flit.Header) ([]Hop, error) {
	if p.faults.RouterFaulty(src) {
		return nil, fmt.Errorf("%w: source router %v faulty", ErrUnreachable, src)
	}
	var hops []Hop
	atRouter, coord, in := true, src, p.dims
	var line geom.Line
	for steps := 0; steps < 8*p.dims+16; steps++ {
		if atRouter {
			outs, w, err := p.routeRouter(coord, in, h)
			if err != nil {
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
			outs, w, err := p.routeXB(line, in, h)
			if err != nil {
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

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkReachableAgrees holds Reachable and UnicastPath to the oracle walk
// over every ordered pair of the policy's shape.
func checkReachableAgrees(t *testing.T, p *Policy, what string) {
	t.Helper()
	p.shape.Enumerate(func(src geom.Coord) bool {
		p.shape.Enumerate(func(dst geom.Coord) bool {
			want, wantErr := walkHeader(p, src, &flit.Header{Src: src, Dst: dst, RC: flit.RCNormal})
			got, gotErr := p.UnicastPath(src, dst)
			if errText(gotErr) != errText(wantErr) || !slices.Equal(got, want) {
				t.Fatalf("%s %v->%v: UnicastPath = %v, %v; the oracle walks %v, %v", what, src, dst, got, gotErr, want, wantErr)
			}
			if err := p.Reachable(src, dst); errText(err) != errText(wantErr) {
				t.Fatalf("%s %v->%v: Reachable = %v, UnicastPath = %v", what, src, dst, err, wantErr)
			}
			return true
		})
		return !t.Failed()
	})
}

func TestReachableAgreesWithUnicastPath(t *testing.T) {
	for _, shape := range []geom.Shape{geom.MustShape(4, 4), geom.MustShape(4, 4, 4)} {
		var singles []fault.Fault
		shape.Enumerate(func(c geom.Coord) bool {
			singles = append(singles, fault.RouterFault(c))
			return true
		})
		for _, l := range shape.Lines() {
			singles = append(singles, fault.XBFault(l))
		}

		checkReachableAgrees(t, withFaults(t, shape, Config{}), fmt.Sprintf("%v fault-free", shape))
		for _, f := range singles {
			checkReachableAgrees(t, withFaults(t, shape, Config{}, f), fmt.Sprintf("%v %v", shape, f))
		}
		// Beyond the single-fault guarantee the refusals multiply; they must
		// still be the same refusals. A separate D-XB moves the detour.
		rng := rand.New(rand.NewSource(15))
		for i := 0; i < 40; i++ {
			a, b := singles[rng.Intn(len(singles))], singles[rng.Intn(len(singles))]
			if a == b {
				continue
			}
			cfg := Config{}
			if i%2 == 1 {
				cfg.DXB = shape.CoordOf(rng.Intn(shape.Size()))
			}
			checkReachableAgrees(t, withFaults(t, shape, cfg, a, b), fmt.Sprintf("%v %v+%v dxb=%v", shape, a, b, cfg.DXB))
		}
	}

	// The pivot extension (2D only) rewrites the destination mid-route.
	shape := geom.MustShape(4, 4)
	for _, l := range shape.LinesAlong(1) {
		p := withFaults(t, shape, Config{PivotLastDim: true}, fault.XBFault(l))
		checkReachableAgrees(t, p, fmt.Sprintf("pivot %v", l))
		shape.Enumerate(func(src geom.Coord) bool {
			shape.Enumerate(func(dst geom.Coord) bool {
				mid, ok := p.PivotIntermediate(src, dst)
				if !ok {
					return true
				}
				// The two-phase header through the switches' own decisions.
				h := &flit.Header{Src: src, Dst: mid, FinalDst: dst, TwoPhase: true}
				dec, err := p.RouteRouter(nil, mid, 0, h)
				path, perr := p.PivotPath(src, dst)
				if perr != nil || err != nil {
					t.Fatalf("pivot %v %v->%v via %v: PivotPath %v, intermediate's decision %v", l, src, dst, mid, perr, err)
				}
				if dec.Rewrite.Apply(h); h.Dst != dst || h.TwoPhase {
					t.Fatalf("pivot %v %v->%v: intermediate rewrote the header to %+v", l, src, dst, h)
				}
				if last := path[len(path)-1]; last.Kind != HopPE || last.Coord != dst {
					t.Fatalf("pivot %v %v->%v: path ends at %v", l, src, dst, last)
				}
				want, _ := walkHeader(p, src, &flit.Header{Src: src, Dst: mid, FinalDst: dst, TwoPhase: true, RC: flit.RCNormal})
				if !slices.Equal(path, want) {
					t.Fatalf("pivot %v %v->%v: PivotPath = %v; the oracle walks %v", l, src, dst, path, want)
				}
				return true
			})
			return !t.Failed()
		})
	}
}
