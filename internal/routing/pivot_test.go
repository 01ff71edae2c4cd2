package routing

import (
	"errors"
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// pivotPolicy builds a 2D policy with the pivot extension and a faulty
// last-dimension crossbar at column 2.
func pivotPolicy(t *testing.T) (*Policy, geom.Shape, geom.Line) {
	t.Helper()
	shape := geom.MustShape(4, 3)
	badLine := geom.Line{Dim: 1, Fixed: geom.Coord{2, 0}}
	p := withFaults(t, shape, Config{PivotLastDim: true}, fault.XBFault(badLine))
	return p, shape, badLine
}

func TestPivotRestoresReachability(t *testing.T) {
	p, shape, badLine := pivotPolicy(t)
	shape.Enumerate(func(src geom.Coord) bool {
		shape.Enumerate(func(dst geom.Coord) bool {
			_, uniErr := p.UnicastPath(src, dst)
			if uniErr == nil {
				return true
			}
			// Every pair the base facility cannot serve must be covered by
			// the pivot.
			path, err := p.PivotPath(src, dst)
			if err != nil {
				t.Fatalf("%v->%v: base unreachable (%v) and pivot failed: %v", src, dst, uniErr, err)
			}
			// The path must avoid the faulty crossbar and end at dst.
			for _, h := range path {
				if h.Kind == HopXB && h.Line == badLine {
					t.Fatalf("%v->%v: pivot rides the faulty crossbar: %v", src, dst, path)
				}
			}
			if last := path[len(path)-1]; last.Kind != HopPE || last.Coord != dst {
				t.Fatalf("%v->%v: pivot delivered to %v", src, dst, path[len(path)-1])
			}
			return true
		})
		return true
	})
}

func TestPivotPathShape(t *testing.T) {
	p, _, _ := pivotPolicy(t)
	// (0,0) -> (2,2): blocked by faulty Y-XB col 2; pivot via (v,2), v != 2.
	mid, ok := p.PivotIntermediate(geom.Coord{0, 0}, geom.Coord{2, 2})
	if !ok {
		t.Fatal("no intermediate")
	}
	if mid[1] != 2 || mid[0] == 2 {
		t.Fatalf("intermediate = %v", mid)
	}
	path, err := p.PivotPath(geom.Coord{0, 0}, geom.Coord{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Crossbar sequence: an optional dim-0 leg, a dim-1 leg down the pivot
	// column, and the final dim-0 leg into the faulty column. Here the
	// intermediate shares the source's column, so the first leg vanishes.
	var dims []int
	for _, h := range path {
		if h.Kind == HopXB {
			dims = append(dims, h.Line.Dim)
		}
	}
	if len(dims) < 2 || dims[len(dims)-1] != 0 || dims[len(dims)-2] != 1 {
		t.Fatalf("crossbar dims = %v, want [... 1 0]", dims)
	}
	// The final crossbar hop exits at the faulty column — the CDG sink
	// property the deadlock-freedom argument rests on.
	lastXB := path[len(path)-3]
	if lastXB.Kind != HopXB || lastXB.Out != 2 {
		t.Errorf("final crossbar hop = %v", lastXB)
	}
}

func TestPivotInapplicableCases(t *testing.T) {
	p, _, _ := pivotPolicy(t)
	// Same-row destinations never need the pivot.
	if _, ok := p.PivotIntermediate(geom.Coord{0, 1}, geom.Coord{2, 1}); ok {
		t.Error("pivot offered for a same-row pair")
	}
	// Healthy-column destinations never need it.
	if _, ok := p.PivotIntermediate(geom.Coord{0, 0}, geom.Coord{1, 2}); ok {
		t.Error("pivot offered for a healthy column")
	}
	// Without the config flag nothing is offered.
	shape := geom.MustShape(4, 3)
	p2 := withFaults(t, shape, Config{}, fault.XBFault(geom.Line{Dim: 1, Fixed: geom.Coord{2, 0}}))
	if p2.PivotEnabled() {
		t.Error("pivot enabled without config")
	}
	if _, err := p2.PivotPath(geom.Coord{0, 0}, geom.Coord{2, 2}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("pivot path without config: %v", err)
	}
	// 3D networks: extension is 2D-only.
	shape3 := geom.MustShape(3, 3, 2)
	p3 := withFaults(t, shape3, Config{PivotLastDim: true}, fault.XBFault(geom.Line{Dim: 2, Fixed: geom.Coord{1, 1, 0}}))
	if _, ok := p3.PivotIntermediate(geom.Coord{0, 0, 0}, geom.Coord{1, 1, 1}); ok {
		t.Error("pivot offered on a 3D network")
	}
}

func TestPivotHeaderTransforms(t *testing.T) {
	p, _, _ := pivotPolicy(t)
	// At the intermediate router the decision must rewrite Dst/TwoPhase on
	// the forwarded header.
	mid, _ := p.PivotIntermediate(geom.Coord{0, 0}, geom.Coord{2, 2})
	h := &flit.Header{Src: geom.Coord{0, 0}, Dst: mid, FinalDst: geom.Coord{2, 2}, TwoPhase: true}
	dec, err := p.RouteRouter(nil, mid, 1, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Outs) != 1 || dec.Outs[0] != 0 {
		t.Fatalf("intermediate decision = %+v (want dim-0 port)", dec)
	}
	if dec.Rewrite != flit.Retarget {
		t.Fatalf("intermediate rewrite = %#x, want Retarget alone", dec.Rewrite)
	}
	dec.Rewrite.Apply(h)
	if h.TwoPhase || h.Dst != (geom.Coord{2, 2}) || h.RC != flit.RCNormal {
		t.Errorf("rewritten header = %+v", h)
	}
}

func TestPivotWhenIntermediateIsDestinationRow(t *testing.T) {
	// src and dst differ only in dim 1 with dst's column crossbar faulty:
	// the pivot goes to (v, dstY) then one dim-0 hop back to dst's column.
	p, _, _ := pivotPolicy(t)
	path, err := p.PivotPath(geom.Coord{2, 0}, geom.Coord{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if last := path[len(path)-1]; last.Coord != (geom.Coord{2, 2}) {
		t.Fatalf("delivered to %v", last.Coord)
	}
}
