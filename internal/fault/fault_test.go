package fault

import (
	"strings"
	"testing"

	"sr2201/internal/geom"
)

func shape43() geom.Shape { return geom.MustShape(4, 3) }

func TestAddValidation(t *testing.T) {
	s := NewSet(shape43())
	if err := s.Add(RouterFault(geom.Coord{1, 1})); err != nil {
		t.Fatalf("valid router fault rejected: %v", err)
	}
	if err := s.Add(RouterFault(geom.Coord{4, 0})); err == nil {
		t.Error("out-of-range router fault accepted")
	}
	if err := s.Add(XBFault(geom.Line{Dim: 0, Fixed: geom.Coord{0, 2}})); err != nil {
		t.Fatalf("valid crossbar fault rejected: %v", err)
	}
	if err := s.Add(XBFault(geom.Line{Dim: 2, Fixed: geom.Coord{}})); err == nil {
		t.Error("out-of-dims crossbar fault accepted")
	}
	if err := s.Add(XBFault(geom.Line{Dim: 0, Fixed: geom.Coord{0, 5}})); err == nil {
		t.Error("out-of-range crossbar fault accepted")
	}
	// Row 1's crossbar spelled with a point of the row: the engine would
	// fail row 1's crossbar and the routing would not know it.
	if err := s.Add(XBFault(geom.Line{Dim: 0, Fixed: geom.Coord{2, 1}})); err == nil || !strings.Contains(err.Error(), "dim0@(2,1)") {
		t.Errorf("crossbar fault with a coordinate in its own dimension: %v, want a refusal naming dim0@(2,1)", err)
	}
	if err := s.Add(Fault{Kind: Kind(9)}); err == nil {
		t.Error("unknown fault kind accepted")
	}
	if s.Count() != 2 {
		t.Errorf("count = %d, want 2", s.Count())
	}
	if got := len(s.List()); got != 2 {
		t.Errorf("list = %d entries", got)
	}
}

func TestQueries(t *testing.T) {
	s := NewSet(shape43())
	r := geom.Coord{2, 1}
	if err := s.Add(RouterFault(r)); err != nil {
		t.Fatal(err)
	}
	if !s.RouterFaulty(r) || s.RouterFaulty(geom.Coord{0, 0}) {
		t.Error("RouterFaulty wrong")
	}
	if s.PEAlive(r) || !s.PEAlive(geom.Coord{0, 0}) {
		t.Error("PEAlive wrong")
	}
	xl := geom.Line{Dim: 1, Fixed: geom.Coord{3, 0}}
	if err := s.Add(XBFault(xl)); err != nil {
		t.Fatal(err)
	}
	if !s.XBFaulty(xl) || s.XBFaulty(geom.Line{Dim: 1, Fixed: geom.Coord{0, 0}}) {
		t.Error("XBFaulty wrong")
	}
}

func TestLineTouched(t *testing.T) {
	s := NewSet(shape43())
	if err := s.Add(RouterFault(geom.Coord{2, 1})); err != nil {
		t.Fatal(err)
	}
	// The dim-0 line through (2,1) is touched; the dim-0 line at row 0 isn't.
	if !s.LineTouched(geom.LineOf(geom.Coord{2, 1}, 0)) {
		t.Error("row 1 not touched")
	}
	if s.LineTouched(geom.LineOf(geom.Coord{0, 0}, 0)) {
		t.Error("row 0 touched")
	}
	// The dim-1 line through (2,1) is also touched.
	if !s.LineTouched(geom.LineOf(geom.Coord{2, 1}, 1)) {
		t.Error("column 2 not touched")
	}
	// A directly faulty crossbar touches its own line.
	if err := s.Add(XBFault(geom.LineOf(geom.Coord{0, 2}, 0))); err != nil {
		t.Fatal(err)
	}
	if !s.LineTouched(geom.LineOf(geom.Coord{3, 2}, 0)) {
		t.Error("faulted crossbar's line not touched")
	}
}

func TestDetourPort(t *testing.T) {
	s := NewSet(shape43())
	l := geom.LineOf(geom.Coord{0, 1}, 0)
	if p, ok := s.DetourPort(l); !ok || p != 0 {
		t.Errorf("no-fault detour = %d,%v", p, ok)
	}
	if err := s.Add(RouterFault(geom.Coord{0, 1})); err != nil {
		t.Fatal(err)
	}
	if p, ok := s.DetourPort(l); !ok || p != 1 {
		t.Errorf("detour with port-0 router down = %d,%v", p, ok)
	}
	// Kill every router on the line: no detour port remains.
	for v := 1; v < 4; v++ {
		if err := s.Add(RouterFault(geom.Coord{v, 1})); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.DetourPort(l); ok {
		t.Error("detour port found on a fully dead line")
	}
}

func TestZeroValueSetFailsLoudly(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on zero-value Set did not panic", name)
			}
		}()
		fn()
	}
	var s Set
	mustPanic("Add", func() { _ = s.Add(RouterFault(geom.Coord{0, 0})) })
	mustPanic("LineTouched", func() { s.LineTouched(geom.Line{}) })
	mustPanic("DetourPort", func() { s.DetourPort(geom.Line{}) })
	mustPanic("Clone", func() { s.Clone() })
	// Pure membership queries stay usable: an empty set is faultless.
	if s.RouterFaulty(geom.Coord{1, 1}) || s.RouterFaulty(geom.Coord{}) || s.XBFaulty(geom.Line{}) || !s.PEAlive(geom.Coord{0, 0}) {
		t.Error("zero-value membership queries reported faults")
	}
	if s.RouterFaultyAt(0) || s.RouterFaultyAt(200) || s.XBFaultyAt(0, 0) || s.XBFaultyAt(1, 3) {
		t.Error("zero-value index queries reported faults")
	}
}

// TestQueriesOutsideShapeAnswerHealthy pins the membership queries to the
// set's faults and nothing else: a coordinate or line the shape does not
// hold names no switch, even where its index would land on a faulty one's
// bit.
func TestQueriesOutsideShapeAnswerHealthy(t *testing.T) {
	s := NewSet(shape43()) // routers 0..11, dim-0 crossbars 0..2, dim-1 crossbars 0..3
	for _, f := range []Fault{
		RouterFault(geom.Coord{0, 1}), // Index 4
		RouterFault(geom.Coord{3, 0}), // Index 3
		XBFault(geom.LineOf(geom.Coord{0, 2}, 0)),
		XBFault(geom.LineOf(geom.Coord{0, 0}, 1)), // the first bit past the dim-0 crossbars
	} {
		if err := s.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []geom.Coord{
		{4, 0},    // Index 4, past dimension 0
		{-1, 1},   // Index 3
		{0, 1, 1}, // a coordinate in an unused dimension; Index 4
		{0, 3},    // past dimension 1
	} {
		if s.RouterFaulty(c) || !s.PEAlive(c) {
			t.Errorf("router %v outside the shape reported faulty", c)
		}
	}
	for _, l := range []geom.Line{
		{Dim: 0, Fixed: geom.Coord{0, 3}},    // LineIndex 3, past the dim-0 crossbars
		{Dim: 0, Fixed: geom.Coord{0, 2, 1}}, // an unused dimension
		{Dim: 2, Fixed: geom.Coord{0, 2}},    // a dimension the shape lacks
		{Dim: -1},
	} {
		if s.XBFaulty(l) {
			t.Errorf("crossbar %v outside the shape reported faulty", l)
		}
	}
	// A line that spells its own dimension names no crossbar: Add refuses it,
	// and the query does not read it as the line it would index to.
	if l := (geom.Line{Dim: 0, Fixed: geom.Coord{2, 2}}); s.XBFaulty(l) {
		t.Errorf("crossbar %v, with a coordinate in its own dimension, reported faulty", l)
	}
	if !s.XBFaulty(geom.LineOf(geom.Coord{2, 2}, 0)) || !s.XBFaultyAt(0, 2) || !s.XBFaultyAt(1, 0) || s.XBFaultyAt(1, 1) {
		t.Error("crossbar bits wrong inside the shape")
	}
	if !s.RouterFaultyAt(3) || !s.RouterFaultyAt(4) || s.RouterFaultyAt(5) {
		t.Error("router bits wrong inside the shape")
	}
}

// TestDuplicateAdd: a switch dies once. Adding a fault the set already
// holds is refused with an error naming it, and leaves the set as it was:
// each fault listed, counted and faulty once.
func TestDuplicateAdd(t *testing.T) {
	s := NewSet(shape43())
	r, x := RouterFault(geom.Coord{1, 2}), XBFault(geom.LineOf(geom.Coord{3, 0}, 1))
	for _, f := range []Fault{r, x} {
		if err := s.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		f    Fault
		want string
	}{{r, "router (1,2) is already faulty"}, {x, "crossbar " + x.Line.String() + " is already faulty"}} {
		if err := s.Add(tc.f); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("second Add(%v) = %v, want an error containing %q", tc.f, err, tc.want)
		}
	}
	if got := s.List(); s.Count() != 2 || len(got) != 2 || got[0] != r || got[1] != x {
		t.Errorf("count %d, list %v: want each fault listed once", s.Count(), got)
	}
	if !s.RouterFaulty(r.Coord) || !s.XBFaulty(x.Line) {
		t.Error("faults not reported")
	}
	if c := s.Clone(); c.Count() != 2 || c.Add(r) == nil {
		t.Error("a clone does not hold the faults it copied")
	}
}

func TestClone(t *testing.T) {
	s := NewSet(shape43())
	if err := s.Add(RouterFault(geom.Coord{1, 1})); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(XBFault(geom.LineOf(geom.Coord{2, 0}, 1))); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if !c.RouterFaulty(geom.Coord{1, 1}) || !c.XBFaulty(geom.LineOf(geom.Coord{2, 0}, 1)) || c.Count() != 2 || c.Shape().String() != s.Shape().String() {
		t.Fatal("clone did not copy contents")
	}
	// Mutating the clone must not leak into the original, and vice versa.
	if err := c.Add(XBFault(geom.LineOf(geom.Coord{0, 2}, 0))); err != nil {
		t.Fatal(err)
	}
	if s.XBFaulty(geom.LineOf(geom.Coord{0, 2}, 0)) || s.Count() != 2 {
		t.Error("clone mutation leaked into original")
	}
	if err := s.Add(RouterFault(geom.Coord{3, 2})); err != nil {
		t.Fatal(err)
	}
	if c.RouterFaulty(geom.Coord{3, 2}) || c.Count() != 3 {
		t.Error("original mutation leaked into clone")
	}
}

func TestFaultString(t *testing.T) {
	if got := RouterFault(geom.Coord{1, 2}).String(); got != "router@(1,2)" {
		t.Errorf("String = %q", got)
	}
	if got := XBFault(geom.Line{Dim: 1, Fixed: geom.Coord{3, 0}}).String(); got != "xb@dim1@(3,0)" {
		t.Errorf("String = %q", got)
	}
}
