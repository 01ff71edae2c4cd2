package geom

import (
	"testing"
	"testing/quick"
)

func TestNewShapeValidation(t *testing.T) {
	if _, err := NewShape(); err == nil {
		t.Error("empty shape accepted")
	}
	if _, err := NewShape(4, 0); err == nil {
		t.Error("zero extent accepted")
	}
	if _, err := NewShape(4, -1); err == nil {
		t.Error("negative extent accepted")
	}
	if _, err := NewShape(1, 1, 1, 1, 1, 1, 1, 1, 1); err == nil {
		t.Error("9-dimensional shape accepted")
	}
	s, err := NewShape(4, 3)
	if err != nil {
		t.Fatalf("NewShape(4,3): %v", err)
	}
	if s.Dims() != 2 || s.Size() != 12 {
		t.Errorf("got dims=%d size=%d, want 2, 12", s.Dims(), s.Size())
	}
}

func TestMustShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustShape(0) did not panic")
		}
	}()
	MustShape(0)
}

func TestIndexRoundTrip(t *testing.T) {
	shapes := []Shape{
		MustShape(1),
		MustShape(7),
		MustShape(4, 3),
		MustShape(2, 2, 2),
		MustShape(3, 4, 5),
		MustShape(2, 3, 2, 3),
	}
	for _, s := range shapes {
		for i := 0; i < s.Size(); i++ {
			c := s.CoordOf(i)
			if !s.Contains(c) {
				t.Errorf("shape %v: CoordOf(%d)=%v outside shape", s, i, c)
			}
			if got := s.Index(c); got != i {
				t.Errorf("shape %v: Index(CoordOf(%d)) = %d", s, i, got)
			}
		}
	}
}

func TestIndexRowMajorOrder(t *testing.T) {
	s := MustShape(4, 3)
	// Dimension 0 varies fastest.
	want := []Coord{
		{0, 0}, {1, 0}, {2, 0}, {3, 0},
		{0, 1}, {1, 1}, {2, 1}, {3, 1},
		{0, 2}, {1, 2}, {2, 2}, {3, 2},
	}
	for i, w := range want {
		if got := s.CoordOf(i); got != w {
			t.Errorf("CoordOf(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestContains(t *testing.T) {
	s := MustShape(4, 3)
	cases := []struct {
		c    Coord
		want bool
	}{
		{Coord{0, 0}, true},
		{Coord{3, 2}, true},
		{Coord{4, 0}, false},
		{Coord{0, 3}, false},
		{Coord{-1, 0}, false},
		{Coord{0, 0, 1}, false}, // junk in unused dimension
	}
	for _, tc := range cases {
		if got := s.Contains(tc.c); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.c, got, tc.want)
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	s := MustShape(4, 3)
	count := 0
	s.Enumerate(func(Coord) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("enumerated %d points, want 5", count)
	}
}

func TestEnumerateVisitsAllOnce(t *testing.T) {
	s := MustShape(3, 2, 2)
	seen := map[Coord]int{}
	s.Enumerate(func(c Coord) bool {
		seen[c]++
		return true
	})
	if len(seen) != s.Size() {
		t.Fatalf("visited %d distinct points, want %d", len(seen), s.Size())
	}
	for c, n := range seen {
		if n != 1 {
			t.Errorf("point %v visited %d times", c, n)
		}
	}
}

func TestDistanceAndFirstDiff(t *testing.T) {
	a := Coord{1, 2, 3}
	b := Coord{1, 5, 3}
	if d := a.Distance(b); d != 1 {
		t.Errorf("Distance = %d, want 1", d)
	}
	if fd := a.FirstDiff(b, 3); fd != 1 {
		t.Errorf("FirstDiff = %d, want 1", fd)
	}
	if fd := a.FirstDiff(a, 3); fd != -1 {
		t.Errorf("FirstDiff(self) = %d, want -1", fd)
	}
	c := Coord{0, 2, 4}
	if fd := a.FirstDiff(c, 3); fd != 0 {
		t.Errorf("FirstDiff = %d, want 0", fd)
	}
	// FirstDiff must ignore dimensions beyond dims.
	d := Coord{1, 2, 9}
	if fd := a.FirstDiff(d, 2); fd != -1 {
		t.Errorf("FirstDiff with dims=2 = %d, want -1", fd)
	}
}

func TestWithDim(t *testing.T) {
	a := Coord{1, 2, 3}
	b := a.WithDim(1, 7)
	if b != (Coord{1, 7, 3}) {
		t.Errorf("WithDim = %v", b)
	}
	if a != (Coord{1, 2, 3}) {
		t.Errorf("WithDim mutated receiver: %v", a)
	}
}

func TestCoordString(t *testing.T) {
	if got := (Coord{2, 1}).String(); got != "(2,1)" {
		t.Errorf("String = %q", got)
	}
	if got := (Coord{2, 0, 5}).String(); got != "(2,0,5)" {
		t.Errorf("String = %q", got)
	}
	if got := (Coord{2, 1}).In(3); got != "(2,1,0)" {
		t.Errorf("In(3) = %q", got)
	}
}

func TestLinesCoverLattice(t *testing.T) {
	for _, s := range []Shape{MustShape(4, 3), MustShape(2, 3, 4)} {
		for dim := 0; dim < s.Dims(); dim++ {
			lines := s.LinesAlong(dim)
			if len(lines) != s.LineCount(dim) {
				t.Fatalf("shape %v dim %d: %d lines, want %d", s, dim, len(lines), s.LineCount(dim))
			}
			// Every lattice point must lie on exactly one line per dimension.
			covered := map[Coord]int{}
			for _, l := range lines {
				for v := 0; v < s[dim]; v++ {
					p := l.Point(v)
					if !s.Contains(p) {
						t.Fatalf("line %v point %v outside shape %v", l, p, s)
					}
					if !l.Contains(p, s.Dims()) {
						t.Fatalf("line %v does not contain its own point %v", l, p)
					}
					covered[p]++
				}
			}
			if len(covered) != s.Size() {
				t.Fatalf("shape %v dim %d: lines cover %d points, want %d", s, dim, len(covered), s.Size())
			}
			for p, n := range covered {
				if n != 1 {
					t.Errorf("shape %v dim %d: point %v on %d lines", s, dim, p, n)
				}
			}
		}
	}
}

func TestLineOfAndIndex(t *testing.T) {
	s := MustShape(4, 3)
	c := Coord{2, 1}
	lx := LineOf(c, 0)
	if lx.Dim != 0 || lx.Fixed != (Coord{0, 1}) {
		t.Errorf("LineOf dim0 = %+v", lx)
	}
	ly := LineOf(c, 1)
	if ly.Dim != 1 || ly.Fixed != (Coord{2, 0}) {
		t.Errorf("LineOf dim1 = %+v", ly)
	}
	// LineIndex must be a bijection into [0, LineCount).
	for dim := 0; dim < 2; dim++ {
		seen := map[int]bool{}
		for _, l := range s.LinesAlong(dim) {
			idx := s.LineIndex(l)
			if idx < 0 || idx >= s.LineCount(dim) {
				t.Fatalf("LineIndex(%v) = %d out of range", l, idx)
			}
			if seen[idx] {
				t.Fatalf("LineIndex(%v) = %d duplicated", l, idx)
			}
			seen[idx] = true
			if back := s.LineAt(dim, idx); back != l {
				t.Fatalf("LineAt(%d, %d) = %v, want %v", dim, idx, back, l)
			}
		}
	}
}

func TestLinesGroupedByDimension(t *testing.T) {
	s := MustShape(2, 3)
	all := s.Lines()
	if len(all) != s.LineCount(0)+s.LineCount(1) {
		t.Fatalf("Lines() returned %d lines", len(all))
	}
	for i, l := range all {
		wantDim := 0
		if i >= s.LineCount(0) {
			wantDim = 1
		}
		if l.Dim != wantDim {
			t.Errorf("line %d has dim %d, want %d", i, l.Dim, wantDim)
		}
	}
}

// Property: Index/CoordOf round-trips on random coordinates.
func TestQuickIndexRoundTrip(t *testing.T) {
	s := MustShape(5, 4, 3)
	f := func(raw uint32) bool {
		idx := int(raw) % s.Size()
		return s.Index(s.CoordOf(idx)) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Distance is symmetric and zero iff equal; FirstDiff agrees with
// Distance==0.
func TestQuickDistanceProperties(t *testing.T) {
	s := MustShape(5, 4, 3)
	f := func(a, b uint32) bool {
		ca := s.CoordOf(int(a) % s.Size())
		cb := s.CoordOf(int(b) % s.Size())
		if ca.Distance(cb) != cb.Distance(ca) {
			return false
		}
		if (ca.Distance(cb) == 0) != (ca == cb) {
			return false
		}
		return (ca.FirstDiff(cb, 3) == -1) == (ca == cb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every point is on the line LineOf(point, dim) for every dim.
func TestQuickLineMembership(t *testing.T) {
	s := MustShape(4, 3, 2)
	f := func(raw uint32, dimRaw uint8) bool {
		c := s.CoordOf(int(raw) % s.Size())
		dim := int(dimRaw) % s.Dims()
		l := LineOf(c, dim)
		return l.Contains(c, s.Dims()) && l.Point(c[dim]) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
