// Package geom provides the d-dimensional lattice arithmetic that underlies
// the multi-dimensional crossbar network: coordinates, rectangular shapes,
// linearization, and axis-aligned lines (the sets of lattice points joined by
// one crossbar switch).
package geom

import (
	"fmt"
	"strconv"
	"strings"
)

// MaxDims is the largest number of dimensions supported. The SR2201 itself is
// a three-dimensional machine, but the structural-scaling experiment (E10)
// builds a 2x2x2x2x2x2 shape, the d = log2 n case in which the MD crossbar
// degenerates into a hypercube. 8 leaves room above that 6-D shape while
// Coord stays a fixed-size, comparable array.
const MaxDims = 8

// Coord is a point of the d-dimensional lattice. Only the first Dims(shape)
// entries are meaningful for a given network; the rest must be zero.
type Coord [MaxDims]int

// Shape describes the extent of the lattice: Shape[i] is the number of
// lattice points along dimension i (the paper's n_i).
type Shape []int

// NewShape validates the per-dimension extents and returns them as a Shape.
// Every extent must be at least 1 and the dimensionality must lie in
// [1, MaxDims].
func NewShape(extents ...int) (Shape, error) {
	if len(extents) == 0 {
		return nil, fmt.Errorf("geom: shape needs at least one dimension")
	}
	if len(extents) > MaxDims {
		return nil, fmt.Errorf("geom: %d dimensions exceeds maximum %d", len(extents), MaxDims)
	}
	s := make(Shape, len(extents))
	for i, e := range extents {
		if e < 1 {
			return nil, fmt.Errorf("geom: dimension %d has non-positive extent %d", i, e)
		}
		s[i] = e
	}
	return s, nil
}

// MustShape is NewShape for statically known good extents; it panics on error.
func MustShape(extents ...int) Shape {
	s, err := NewShape(extents...)
	if err != nil {
		panic(err)
	}
	return s
}

// Dims reports the dimensionality d of the lattice.
func (s Shape) Dims() int { return len(s) }

// Equal reports whether two shapes have identical dimensionality and
// extents.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Size reports the total number of lattice points n = n1*n2*...*nd.
func (s Shape) Size() int {
	n := 1
	for _, e := range s {
		n *= e
	}
	return n
}

// Contains reports whether c lies inside the lattice (and has zero entries in
// unused dimensions).
func (s Shape) Contains(c Coord) bool {
	for i := 0; i < len(s); i++ {
		if c[i] < 0 || c[i] >= s[i] {
			return false
		}
	}
	for i := len(s); i < MaxDims; i++ {
		if c[i] != 0 {
			return false
		}
	}
	return true
}

// Index linearizes c in row-major order with dimension 0 fastest-varying,
// matching the order produced by Enumerate.
func (s Shape) Index(c Coord) int {
	idx := 0
	stride := 1
	for i := 0; i < len(s); i++ {
		idx += c[i] * stride
		stride *= s[i]
	}
	return idx
}

// CoordOf is the inverse of Index.
func (s Shape) CoordOf(idx int) Coord {
	var c Coord
	for i := 0; i < len(s); i++ {
		c[i] = idx % s[i]
		idx /= s[i]
	}
	return c
}

// Enumerate calls fn for every lattice point in Index order. If fn returns
// false, enumeration stops early.
func (s Shape) Enumerate(fn func(Coord) bool) {
	n := s.Size()
	for i := 0; i < n; i++ {
		if !fn(s.CoordOf(i)) {
			return
		}
	}
}

// Equal reports whether two coordinates are identical.
func (c Coord) Equal(o Coord) bool { return c == o }

// WithDim returns a copy of c with dimension dim replaced by v.
func (c Coord) WithDim(dim, v int) Coord {
	c[dim] = v
	return c
}

// String renders the coordinate for a d-dimensional lattice, e.g. "(2,0,1)".
func (c Coord) String() string {
	var buf [32]byte
	return string(c.Append(buf[:0]))
}

// Append appends c's String form to b, for names built without a string per
// part.
func (c Coord) Append(b []byte) []byte {
	// Without knowing d we print all dimensions up to the last non-zero one,
	// and at least two.
	last := 1
	for i := 2; i < MaxDims; i++ {
		if c[i] != 0 {
			last = i
		}
	}
	b = append(b, '(')
	for i := 0; i <= last; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c[i]), 10)
	}
	return append(b, ')')
}

// In renders the coordinate using exactly dims dimensions, e.g. "(2,0,1)".
func (c Coord) In(dims int) string {
	var b [2 + MaxDims*21]byte
	return string(c.AppendIn(b[:0], dims))
}

// AppendIn appends the coordinate as In renders it to b.
func (c Coord) AppendIn(b []byte, dims int) []byte {
	b = append(b, '(')
	for i := 0; i < dims; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c[i]), 10)
	}
	return append(b, ')')
}

// Distance reports the number of dimensions in which c and o differ. In the
// MD crossbar network this is exactly the number of crossbar hops between the
// two PEs under dimension-order routing (the paper's "maximum of d hops").
func (c Coord) Distance(o Coord) int {
	d := 0
	for i := 0; i < MaxDims; i++ {
		if c[i] != o[i] {
			d++
		}
	}
	return d
}

// FirstDiff returns the lowest dimension (< dims) in which c and o differ,
// or -1 if they agree in all of them. Dimension-order routing corrects
// dimensions in increasing order, so this is the next dimension to route in.
func (c Coord) FirstDiff(o Coord, dims int) int {
	for i := 0; i < dims; i++ {
		if c[i] != o[i] {
			return i
		}
	}
	return -1
}

// String renders the shape as "n1xn2x...", e.g. "4x3".
func (s Shape) String() string {
	var b strings.Builder
	for i, e := range s {
		if i > 0 {
			b.WriteByte('x')
		}
		b.WriteString(strconv.Itoa(e))
	}
	return b.String()
}
