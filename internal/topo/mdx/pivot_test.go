package mdx_test

import (
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
	"sr2201/internal/topo"
	"sr2201/internal/topo/mdx"
)

// pivotScheme builds the extension on 4x3 with the last-dimension crossbar
// of column 2 faulty, and a walker that decodes its channel numbers.
func pivotScheme(t *testing.T) (*mdx.Pivot, topo.Walker, geom.Line) {
	t.Helper()
	shape := geom.MustShape(4, 3)
	badLine := geom.Line{Dim: 1, Fixed: geom.Coord{2, 0}}
	set := fault.NewSet(shape)
	if err := set.Add(fault.XBFault(badLine)); err != nil {
		t.Fatal(err)
	}
	s, err := mdx.NewPivot(routing.Config{Shape: shape, Faults: set})
	if err != nil {
		t.Fatal(err)
	}
	return s, topo.NewWalker(shape, topo.MDCrossbar{Shape: shape, VCs: 1}, s.Policy()), badLine
}

// delivers reports whether the route's last channel is dst's eject port.
func delivers(w *topo.Walker, shape geom.Shape, route []int32, dst geom.Coord) bool {
	dim, index, out := w.Port(route[len(route)-1])
	return dim < 0 && index == shape.Index(dst) && out == shape.Dims()
}

func TestPivotRestoresReachability(t *testing.T) {
	s, w, badLine := pivotScheme(t)
	shape := geom.MustShape(4, 3)
	bad := shape.LineIndex(badLine)
	refused := 0
	shape.Enumerate(func(src geom.Coord) bool {
		shape.Enumerate(func(dst geom.Coord) bool {
			uniErr := s.Policy().Reachable(src, dst)
			route, err := s.Route(src, dst)
			if err != nil {
				t.Fatalf("%v->%v: policy says %v and the pivot fails: %v", src, dst, uniErr, err)
			}
			if uniErr == nil {
				return true
			}
			refused++
			for _, ch := range route {
				if dim, index, _ := w.Port(ch); dim == badLine.Dim && index == bad {
					t.Fatalf("%v->%v: pivot rides the faulty crossbar: %v", src, dst, route)
				}
			}
			if !delivers(&w, shape, route, dst) {
				t.Fatalf("%v->%v: pivot ends on %s", src, dst, w.Name(route[len(route)-1]))
			}
			return true
		})
		return true
	})
	if refused == 0 {
		t.Fatal("the fault cut no pair off")
	}
}

func TestPivotPathShape(t *testing.T) {
	s, w, _ := pivotScheme(t)
	// (0,0) -> (2,2): blocked by faulty Y-XB col 2; pivot via (v,2), v != 2.
	mid, ok := s.Intermediate(geom.Coord{0, 0}, geom.Coord{2, 2})
	if !ok || mid[1] != 2 || mid[0] == 2 {
		t.Fatalf("intermediate = %v, %v", mid, ok)
	}
	route, err := s.Route(geom.Coord{0, 0}, geom.Coord{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Crossbar sequence: an optional dim-0 leg, a dim-1 leg down the pivot
	// column, and the final dim-0 leg into the faulty column. Here the
	// intermediate shares the source's column, so the first leg vanishes.
	var dims []int
	for _, ch := range route {
		if dim, _, _ := w.Port(ch); dim >= 0 {
			dims = append(dims, dim)
		}
	}
	if len(dims) < 2 || dims[len(dims)-1] != 0 || dims[len(dims)-2] != 1 {
		t.Fatalf("crossbar dims = %v, want [... 1 0]", dims)
	}
	// The final crossbar hop exits at the faulty column, and the
	// intermediate forwards rather than ejects.
	if dim, _, out := w.Port(route[len(route)-2]); dim != 0 || out != 2 {
		t.Errorf("final crossbar hop = %s", w.Name(route[len(route)-2]))
	}
	for _, ch := range route[:len(route)-1] {
		if dim, _, out := w.Port(ch); dim < 0 && out == 2 {
			t.Errorf("route ejects early at %s", w.Name(ch))
		}
	}
}

func TestPivotInapplicableCases(t *testing.T) {
	s, _, _ := pivotScheme(t)
	// Same-row destinations never need the pivot.
	if _, ok := s.Intermediate(geom.Coord{0, 1}, geom.Coord{2, 1}); ok {
		t.Error("pivot offered for a same-row pair")
	}
	// Healthy-column destinations never need it.
	if _, ok := s.Intermediate(geom.Coord{0, 0}, geom.Coord{1, 2}); ok {
		t.Error("pivot offered for a healthy column")
	}
	// The extension is 2D only.
	if _, err := mdx.NewPivot(routing.Config{Shape: geom.MustShape(3, 3, 2)}); err == nil {
		t.Error("pivot built on a 3D network")
	}
}

func TestPivotWhenIntermediateIsDestinationRow(t *testing.T) {
	// src and dst differ only in dim 1 with dst's column crossbar faulty:
	// the pivot goes to (v, dstY) then one dim-0 hop back to dst's column.
	s, w, _ := pivotScheme(t)
	route, err := s.Route(geom.Coord{2, 0}, geom.Coord{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !delivers(&w, geom.MustShape(4, 3), route, geom.Coord{2, 2}) {
		t.Fatalf("delivered by %s", w.Name(route[len(route)-1]))
	}
}
