package geom

import "fmt"

// Line identifies one axis-aligned line of lattice points: the set of
// coordinates that agree with Fixed in every dimension except Dim. In the MD
// crossbar network, each Line is served by exactly one crossbar switch.
type Line struct {
	// Dim is the dimension along which the line runs.
	Dim int
	// Fixed holds the coordinates of the line in every dimension other than
	// Dim; entry Dim is zero by convention.
	Fixed Coord
}

// LineOf returns the line through c that runs along dimension dim.
func LineOf(c Coord, dim int) Line {
	c[dim] = 0
	return Line{Dim: dim, Fixed: c}
}

// Contains reports whether c lies on the line within a lattice of
// dimensionality dims.
func (l Line) Contains(c Coord, dims int) bool {
	for i := 0; i < dims; i++ {
		if i == l.Dim {
			continue
		}
		if c[i] != l.Fixed[i] {
			return false
		}
	}
	return true
}

// Point returns the lattice point at position v along the line.
func (l Line) Point(v int) Coord {
	c := l.Fixed
	c[l.Dim] = v
	return c
}

// String renders the line, e.g. "dim0@(_,1)".
func (l Line) String() string {
	return fmt.Sprintf("dim%d@%s", l.Dim, l.Fixed.String())
}

// Lines enumerates every axis-aligned line of the lattice, grouped by
// dimension: first all dim-0 lines, then dim-1, and so on. Within one
// dimension, lines appear in Index order of their fixed coordinates.
func (s Shape) Lines() []Line {
	var out []Line
	for dim := 0; dim < s.Dims(); dim++ {
		out = append(out, s.LinesAlong(dim)...)
	}
	return out
}

// LinesAlong enumerates the lines that run along the given dimension, in
// LineIndex order.
func (s Shape) LinesAlong(dim int) []Line {
	out := make([]Line, s.LineCount(dim))
	for idx := range out {
		out[idx] = s.LineAt(dim, idx)
	}
	return out
}

// LineIndex returns a dense index for the line within the per-dimension
// grouping produced by LinesAlong, i.e. the Index of its fixed coordinates in
// the reduced lattice.
func (s Shape) LineIndex(l Line) int {
	stride := 1
	idx := 0
	for i := 0; i < s.Dims(); i++ {
		if i == l.Dim {
			continue
		}
		idx += l.Fixed[i] * stride
		stride *= s[i]
	}
	return idx
}

// LineAt inverts LineIndex: the idx-th line along dim.
func (s Shape) LineAt(dim, idx int) Line {
	l := Line{Dim: dim}
	for i := 0; i < s.Dims(); i++ {
		if i == dim {
			continue
		}
		l.Fixed[i] = idx % s[i]
		idx /= s[i]
	}
	return l
}

// LineCount reports the number of lines along dim, i.e. Size()/s[dim].
func (s Shape) LineCount(dim int) int {
	return s.Size() / s[dim]
}
