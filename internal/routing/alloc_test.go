//go:build !race

package routing

import (
	"testing"

	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

func TestFanDecisionsAllocateNothing(t *testing.T) {
	// Every fan decision hands out an interned list: the S-XB's fan, a
	// crossbar's RC=2 fan, the router fan rule and VCPolicy's lane-scaled
	// copies of them allocate nothing on healthy switches, nor, once its
	// list is interned, past a faulty router or crossbar. (The race
	// detector instruments allocations, hence the build tag.)
	shape := geom.MustShape(4, 4, 4)
	faults := fault.NewSet(shape)
	for _, f := range []fault.Fault{fault.RouterFault(geom.Coord{1, 2, 1}), fault.XBFault(geom.LineOf(geom.Coord{3, 3, 0}, 2))} {
		if err := faults.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	p := mustPolicy(t, Config{Shape: shape, Faults: faults})
	const vcs = 4
	vp, err := NewVC(p, vcs)
	if err != nil {
		t.Fatal(err)
	}
	req, fan := &flit.Header{RC: flit.RCBroadcastRequest}, &flit.Header{RC: flit.RCBroadcast}
	type fanCase struct {
		name string
		// router is the deciding router, or line the deciding crossbar;
		// in is the logical input port.
		router geom.Coord
		line   *geom.Line
		in     int
		h      *flit.Header
	}
	sxb, col, faultyCol := p.EffectiveSXB(), geom.LineOf(geom.Coord{}, 1), geom.LineOf(geom.Coord{1, 0, 1}, 1)
	cases := []fanCase{
		{name: "S-XB", line: &sxb, in: 2, h: req},
		{name: "crossbar", line: &col, in: 0, h: fan},
		{name: "crossbar past a faulty router", line: &faultyCol, in: 0, h: fan},
		{name: "router from dim 0", in: 0, h: fan},
		{name: "router from dim 1", router: geom.Coord{2, 1, 0}, in: 1, h: fan},
		{name: "router past a faulty crossbar", router: geom.Coord{3, 3, 1}, in: 0, h: fan},
	}
	for _, tc := range cases {
		decide := func(lanes int) (engine.Decision, error) {
			if tc.line != nil {
				if lanes == 1 {
					return p.RouteXB(nil, *tc.line, tc.in, tc.h)
				}
				return vp.RouteXB(nil, *tc.line, tc.in*lanes, tc.h)
			}
			if lanes == 1 {
				return p.RouteRouter(nil, tc.router, tc.in, tc.h)
			}
			return vp.RouteRouter(nil, tc.router, tc.in*lanes, tc.h)
		}
		for _, lanes := range []int{1, vcs} {
			dec, err := decide(lanes)
			if err != nil || len(dec.Outs) < 2 {
				t.Fatalf("%s (%d lanes): %v, %v: not a fan", tc.name, lanes, dec.Outs, err)
			}
			again, _ := decide(lanes)
			if &again.Outs[0] != &dec.Outs[0] {
				t.Errorf("%s (%d lanes): two decisions, two output lists", tc.name, lanes)
			}
			if allocs := testing.AllocsPerRun(10, func() { _, _ = decide(lanes) }); allocs != 0 {
				t.Errorf("%s (%d lanes): %v allocations per decision, want 0", tc.name, lanes, allocs)
			}
		}
	}
}
