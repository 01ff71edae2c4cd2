package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"sr2201/internal/geom"
)

// detourWalk replays the element sequence of a detour that starts at router
// `start` and resumes dimension order after the D-XB, calling visitRouter on
// every later router and visitLine on every crossbar used. Either callback
// may stop the walk by returning true; detourWalk reports whether one did.
//
// The sequence is: ride dimensions 1..d-1 in increasing order to the D line,
// cross the D-XB (dim 0 to dst[0]), then resume dimension order to dst. It
// is the oracle the policy's closed forms (detourRidesXB, detourReenters)
// are held to.
func (p *Policy) detourWalk(start, dst geom.Coord, visitRouter func(geom.Coord) bool, visitLine func(geom.Line) bool) bool {
	pos := start
	step := func(dim, to int) bool {
		if pos[dim] == to {
			return false
		}
		if visitLine != nil && visitLine(geom.LineOf(pos, dim)) {
			return true
		}
		pos[dim] = to
		return visitRouter != nil && visitRouter(pos)
	}
	for j := 1; j < p.dims; j++ {
		if step(j, p.dEff[j]) {
			return true
		}
	}
	// The D-XB crossing happens even when pos[0] == dst[0] (the packet still
	// enters the D-XB to have its RC bit reset; the crossbar may reflect it
	// back to the same router).
	if visitLine != nil && visitLine(geom.LineOf(pos, 0)) {
		return true
	}
	pos[0] = dst[0]
	if visitRouter != nil && visitRouter(pos) {
		return true
	}
	for j := 1; j < p.dims; j++ {
		if step(j, dst[j]) {
			return true
		}
	}
	return false
}

// detourUsesLine reports whether a detour starting at router `start` would
// ride the given (faulty) crossbar.
func (p *Policy) detourUsesLine(bad geom.Line, start, dst geom.Coord) bool {
	return p.detourWalk(start, dst, nil, func(l geom.Line) bool { return l == bad })
}

// detourVisitsRouter reports whether a detour starting at router `start`
// would pass through the given (faulty) router.
func (p *Policy) detourVisitsRouter(bad, start, dst geom.Coord) bool {
	if start == bad {
		return true
	}
	return p.detourWalk(start, dst, func(c geom.Coord) bool { return c == bad }, nil)
}

// ridesMismatch holds the router form to the walk for start c and
// destination dst, asked about c's crossbar in the first dimension they
// differ in; reachesMismatch holds the crossbar form for bad router b and
// detour start c to the walk's verdict. Each returns "" when they agree.
func ridesMismatch(p *Policy, c, dst geom.Coord) string {
	k := c.FirstDiff(dst, p.dims)
	if k < 0 {
		return ""
	}
	bad := geom.LineOf(c, k)
	if walk, form := p.detourUsesLine(bad, c, dst), p.detourRidesXB(c, k, dst[k] == p.dEff[k]); walk != form {
		return fmt.Sprintf("D %v: detour %v->%v rides %v: walk %v, closed form %v", p.dEff, c, dst, bad, walk, form)
	}
	return ""
}

func reachesMismatch(p *Policy, c, b, dst geom.Coord, walk bool) string {
	prefix := b.FirstDiff(dst, p.dims)
	if prefix < 0 {
		prefix = p.dims
	}
	if form := p.detourReenters(b, c, prefix); walk != form {
		return fmt.Sprintf("D %v: detour %v->%v passes %v: walk %v, closed form %v", p.dEff, c, dst, b, walk, form)
	}
	return ""
}

// TestDetourClosedForms holds the policy's two closed forms to the detour
// walk: exhaustively over every start, destination, bad router (or the bad
// crossbar the router form is asked about) and D line on six shapes, among
// them shapes with an extent of 1 or 2, and on seeded samples of the 512-
// and 2048-PE machines.
func TestDetourClosedForms(t *testing.T) {
	for _, shape := range []geom.Shape{
		geom.MustShape(4, 3), geom.MustShape(3, 4, 5), geom.MustShape(4, 4, 4),
		geom.MustShape(2, 3, 2, 3), geom.MustShape(1, 3, 3), geom.MustShape(3, 1, 4),
	} {
		p := mustPolicy(t, Config{Shape: shape})
		coords := make([]geom.Coord, shape.Size())
		for i := range coords {
			coords[i] = shape.CoordOf(i)
		}
		for _, d := range shape.Lines() {
			if d.Dim != 0 {
				continue
			}
			p.dEff = d.Fixed
			// One walk per start and destination marks the routers it
			// passes; every bad router is then read off the marks.
			passed := make([]bool, len(coords))
			mark := func(r geom.Coord) bool { passed[shape.Index(r)] = true; return false }
			for _, c := range coords {
				for _, dst := range coords {
					if msg := ridesMismatch(p, c, dst); msg != "" {
						t.Fatalf("%v: %s", shape, msg)
					}
					clear(passed)
					mark(c)
					p.detourWalk(c, dst, mark, nil)
					for bi, b := range coords {
						if msg := reachesMismatch(p, c, b, dst, passed[bi]); msg != "" {
							t.Fatalf("%v: %s", shape, msg)
						}
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, shape := range []geom.Shape{geom.MustShape(8, 8, 8), geom.MustShape(8, 16, 16)} {
		p := mustPolicy(t, Config{Shape: shape})
		n := shape.Size()
		pick := func() geom.Coord { return shape.CoordOf(rng.Intn(n)) }
		for i := 0; i < 200_000; i++ {
			p.dEff = pick().WithDim(0, 0)
			c, b, dst := pick(), pick(), pick()
			// Bias the draws toward the cases the forms distinguish: the
			// bad router on the start's line or on the D line, the
			// destination sharing a prefix with it.
			k := rng.Intn(shape.Dims())
			switch i % 4 {
			case 1:
				b = c.WithDim(k, rng.Intn(shape[k]))
			case 2:
				b = p.dEff.WithDim(0, b[0])
			case 3:
				dst = b.WithDim(k, rng.Intn(shape[k]))
			}
			if msg := ridesMismatch(p, c, dst) + reachesMismatch(p, c, b, dst, p.detourVisitsRouter(b, c, dst)); msg != "" {
				t.Fatalf("%v: %s", shape, msg)
			}
		}
	}
}
