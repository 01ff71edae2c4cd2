// Package fault models network faults and the SR2201's distributed fault
// information. Following the paper's Section 4, when a switch is faulty "the
// information of the switches to which it is connected is set in advance" on
// its neighbors: routers hold a few bits about the crossbars they attach to,
// and crossbars hold a few bits about the routers they attach to. The
// routing policies consult only this neighbor-local information, never a
// global fault map, mirroring the hardware's minimal-cost design.
package fault

import (
	"fmt"

	"sr2201/internal/geom"
)

// Kind classifies a faulty switch.
type Kind uint8

const (
	// KindRouter marks a faulty relay switch (RTC). Its PE is cut off.
	KindRouter Kind = iota
	// KindXB marks a faulty crossbar switch.
	KindXB
	// KindLink marks a faulty direct link between two routers of one
	// axis-aligned line (the direct-link topologies in internal/topo: the
	// MD crossbar has no such links). A link is undirected: both
	// directions fail together.
	KindLink
)

// Fault identifies one faulty switch or link.
type Fault struct {
	Kind Kind
	// Coord locates a faulty router (KindRouter) or one endpoint of a
	// faulty link (KindLink).
	Coord geom.Coord
	// Line locates a faulty crossbar (KindXB).
	Line geom.Line
	// To is the other endpoint of a faulty link (KindLink). It must
	// differ from Coord in exactly one dimension.
	To geom.Coord
}

// RouterFault returns a Fault marking the router at c.
func RouterFault(c geom.Coord) Fault { return Fault{Kind: KindRouter, Coord: c} }

// XBFault returns a Fault marking the crossbar of line l.
func XBFault(l geom.Line) Fault { return Fault{Kind: KindXB, Line: l} }

// LinkFault returns a Fault marking the undirected direct link between a
// and b. The endpoints are stored in canonical (lexicographic) order, so
// LinkFault(a, b) and LinkFault(b, a) are the same fault.
func LinkFault(a, b geom.Coord) Fault {
	if linkLess(b, a) {
		a, b = b, a
	}
	return Fault{Kind: KindLink, Coord: a, To: b}
}

// linkLess orders coordinates lexicographically for canonical link
// endpoints.
func linkLess(a, b geom.Coord) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// String renders the fault.
func (f Fault) String() string {
	switch f.Kind {
	case KindRouter:
		return "router@" + f.Coord.String()
	case KindLink:
		return "link@" + f.Coord.String() + "-" + f.To.String()
	}
	return "xb@" + f.Line.String()
}

// Set is the collection of faults present in the network, with the
// neighbor-information queries the routing hardware would answer from its
// pre-set bits. The zero value is not usable — it has no shape — and every
// shape-dependent method panics on it with a clear message; call NewSet.
// (The pure membership queries RouterFaulty/XBFaulty tolerate the zero
// value and answer "healthy", since an empty set is semantically faultless
// and they sit on the routing hot path.)
type Set struct {
	shape geom.Shape
	// bits holds the switch faults as bit columns, one bit per switch in
	// one allocation: the routers in Shape.Index order, then each
	// dimension's crossbars in LineIndex order from bit xbBase[dim].
	bits   []uint64
	xbBase [geom.MaxDims]int
	// links stays a map: only the direct-link schemes read it, and none of
	// them is on a benchmarked path.
	links map[[2]geom.Coord]bool
	list  []Fault
}

// ensure panics when the set is the unusable zero value.
func (s *Set) ensure() {
	if s.shape.Dims() == 0 {
		panic("fault: zero-value Set is not usable; call NewSet(shape)")
	}
}

// NewSet creates an empty fault set for a network of the given shape.
func NewSet(shape geom.Shape) *Set {
	s := &Set{shape: shape, links: map[[2]geom.Coord]bool{}}
	n := shape.Size()
	for dim := range shape {
		s.xbBase[dim] = n
		n += shape.LineCount(dim)
	}
	s.bits = make([]uint64, (n+63)/64)
	return s
}

// bit reports bit i of the columns; past them (the zero value has none) it
// answers "healthy".
func (s *Set) bit(i int) bool {
	w := i >> 6
	return w < len(s.bits) && s.bits[w]&(1<<(i&63)) != 0
}

// set sets bit i of the columns.
func (s *Set) set(i int) { s.bits[i>>6] |= 1 << (i & 63) }

// Add marks a switch faulty. It validates that the fault lies inside the
// network and refuses one the set already holds: a switch dies once. The
// paper's facility is specified for a single faulty point; callers may add
// more, but the routing guarantees then no longer hold.
func (s *Set) Add(f Fault) error {
	s.ensure()
	switch f.Kind {
	case KindRouter:
		if !s.shape.Contains(f.Coord) {
			return fmt.Errorf("fault: router %v outside shape", f.Coord)
		}
		if s.RouterFaulty(f.Coord) {
			return fmt.Errorf("fault: router %v is already faulty", f.Coord)
		}
		s.set(s.shape.Index(f.Coord))
	case KindXB:
		if f.Line.Dim < 0 || f.Line.Dim >= s.shape.Dims() {
			return fmt.Errorf("fault: crossbar dimension %d outside shape", f.Line.Dim)
		}
		if !s.shape.Contains(f.Line.Point(0)) {
			return fmt.Errorf("fault: crossbar %v outside shape", f.Line)
		}
		if v := f.Line.Fixed[f.Line.Dim]; v != 0 {
			// Point and LineIndex ignore it, XBFaulty does not: the line
			// would name one crossbar to the engine and none to the routing.
			return fmt.Errorf("fault: crossbar %v has coordinate %d in its own dimension %d, want 0 (geom.LineOf)", f.Line, v, f.Line.Dim)
		}
		if s.XBFaulty(f.Line) {
			return fmt.Errorf("fault: crossbar %v is already faulty", f.Line)
		}
		s.set(s.xbBase[f.Line.Dim] + s.shape.LineIndex(f.Line))
	case KindLink:
		if !s.shape.Contains(f.Coord) {
			return fmt.Errorf("fault: link endpoint %v outside shape", f.Coord)
		}
		if !s.shape.Contains(f.To) {
			return fmt.Errorf("fault: link endpoint %v outside shape", f.To)
		}
		if f.Coord.Distance(f.To) != 1 {
			return fmt.Errorf("fault: link %v-%v endpoints must differ in exactly one dimension", f.Coord, f.To)
		}
		if s.LinkFaulty(f.Coord, f.To) {
			return fmt.Errorf("fault: link %v-%v is already faulty", f.Coord, f.To)
		}
		s.links[linkKey(f.Coord, f.To)] = true
	default:
		return fmt.Errorf("fault: unknown kind %d", f.Kind)
	}
	s.list = append(s.list, f)
	return nil
}

// Count reports the number of faults.
func (s *Set) Count() int { return len(s.list) }

// List returns the faults in insertion order.
func (s *Set) List() []Fault { return append([]Fault(nil), s.list...) }

// RouterFaulty reports whether the router at c is faulty; a coordinate
// outside the shape names no router and answers "healthy". Policies must
// call this only for routers adjacent to the querying switch (the
// neighbor-bits discipline).
func (s *Set) RouterFaulty(c geom.Coord) bool {
	return s.shape.Contains(c) && s.bit(s.shape.Index(c))
}

// RouterFaultyAt is RouterFaulty for the router of Shape.Index i, which
// must lie inside the shape.
func (s *Set) RouterFaultyAt(i int) bool { return s.bit(i) }

// XBFaulty reports whether the crossbar of line l is faulty. A line outside
// the shape, or with a non-zero coordinate in its own dimension (spell it
// with geom.LineOf), names no crossbar and answers "healthy". Same
// adjacency discipline as RouterFaulty.
func (s *Set) XBFaulty(l geom.Line) bool {
	if l.Dim < 0 || l.Dim >= s.shape.Dims() || l.Fixed[l.Dim] != 0 || !s.shape.Contains(l.Fixed) {
		return false
	}
	return s.XBFaultyAt(l.Dim, s.shape.LineIndex(l))
}

// XBFaultyAt is XBFaulty for the crossbar of LineIndex i along dimension
// dim, both inside the shape.
func (s *Set) XBFaultyAt(dim, i int) bool { return s.bit(s.xbBase[dim] + i) }

// LinkFaulty reports whether the direct link between a and b is faulty,
// in either argument order. Like RouterFaulty/XBFaulty it tolerates the
// zero-value set (answering "healthy") because it sits on the routing hot
// path of the direct-link schemes.
func (s *Set) LinkFaulty(a, b geom.Coord) bool { return s.links[linkKey(a, b)] }

// linkKey canonicalizes an undirected link's endpoints.
func linkKey(a, b geom.Coord) [2]geom.Coord {
	if linkLess(b, a) {
		a, b = b, a
	}
	return [2]geom.Coord{a, b}
}

// LineTouched reports whether the line's crossbar is faulty or any router on
// the line is faulty. The S-XB substitution rule uses it: "if the XB
// connected to the S-XB is faulty, another XB ... substitutes for the S-XB".
func (s *Set) LineTouched(l geom.Line) bool {
	s.ensure()
	if s.XBFaulty(l) {
		return true
	}
	for v := 0; v < s.shape[l.Dim]; v++ {
		if s.RouterFaulty(l.Point(v)) {
			return true
		}
	}
	return false
}

// PEAlive reports whether the PE at c can use the network at all: its relay
// switch must be healthy.
func (s *Set) PEAlive(c geom.Coord) bool { return !s.RouterFaulty(c) }

// DetourPort returns the statically designated detour router port for the
// dim-0 crossbar of line l: the lowest port whose router is healthy. This is
// the paper's "specific RTC (the detour RTC) ... determined by the network
// hardware in advance". The second result is false when every router on the
// line is faulty (impossible under the single-fault assumption on lines of
// length ≥ 2).
func (s *Set) DetourPort(l geom.Line) (int, bool) {
	s.ensure()
	for v := 0; v < s.shape[l.Dim]; v++ {
		if !s.RouterFaulty(l.Point(v)) {
			return v, true
		}
	}
	return 0, false
}

// Shape returns the lattice shape the set was built for.
func (s *Set) Shape() geom.Shape { return s.shape }

// Clone returns an independent deep copy of the set: mutations of the clone
// (or the original) are invisible to the other. Campaign workers use clones
// to probe hypothetical fault placements without sharing state across
// goroutines.
func (s *Set) Clone() *Set {
	s.ensure()
	c := NewSet(s.shape)
	copy(c.bits, s.bits)
	for k, v := range s.links {
		c.links[k] = v
	}
	c.list = append(c.list, s.list...)
	return c
}
