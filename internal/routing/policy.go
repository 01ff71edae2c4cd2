// Package routing implements the paper's routing schemes for the
// multi-dimensional crossbar network:
//
//   - dimension-order ("X-Y") routing for point-to-point packets (RC=0);
//   - the hardware broadcast facility that serializes broadcasts at the
//     designated S-XB (RC=1 requests, RC=2 fan-out), Section 3.2;
//   - the naive tree broadcast without serialization, reproducing the
//     deadlock of paper Fig. 5;
//   - the hardware detour path selection facility for a single network
//     fault (RC=3), Section 4, with a configurable detour crossbar D-XB;
//   - the paper's deadlock-free combined scheme, Section 5, obtained by
//     configuring D-XB = S-XB.
//
// The Policy consults fault information only about switches adjacent to the
// deciding switch, mirroring the paper's "each switch has only the
// information of the switches that they are physically connected to".
package routing

import (
	"errors"
	"fmt"

	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/topo"
)

// ErrUnreachable reports a destination the detour facility cannot serve
// under the present fault (e.g. a destination behind a faulty last-dimension
// crossbar, or a faulty destination router).
var ErrUnreachable = errors.New("routing: destination unreachable under present faults")

// Config parameterizes a Policy.
type Config struct {
	// Shape is the lattice shape of the network.
	Shape geom.Shape
	// SXB gives the fixed coordinates (dimensions 1..d-1) of the serialized
	// crossbar: the dim-0 crossbar through which all broadcasts are replayed.
	// Dimension 0 of the coordinate is ignored.
	SXB geom.Coord
	// DXB gives the fixed coordinates of the detour crossbar. The paper's
	// deadlock-free scheme requires DXB == SXB; setting them apart reproduces
	// the Fig. 9 deadlock.
	DXB geom.Coord
	// Faults is the network's fault set; nil means fault-free.
	Faults *fault.Set
	// NaiveBroadcast disables S-XB serialization: broadcasts fan out directly
	// from the source (paper Fig. 5's deadlock-prone scheme).
	NaiveBroadcast bool
	// PivotLastDim enables the two-phase pivot extension (DESIGN.md A3,
	// beyond the paper, 2D only): destinations behind a faulty
	// last-dimension crossbar are reached by routing to an intermediate
	// router on the destination's dim-0 line first. CAUTION: the pivot's
	// second dimension-0 leg is a Y->X turn away from the serialized
	// crossbar, and the channel dependency graph (internal/cdg) shows it
	// closes real multi-packet cycles with ordinary traffic — the extension
	// trades the paper's deadlock-freedom guarantee for reachability, which
	// is exactly why the paper confines non-dimension-order turns to the
	// S-XB. Experiment A3 documents the trade-off.
	PivotLastDim bool
}

// Policy implements topo.Policy with the paper's routing rules.
type Policy struct {
	cfg    Config
	shape  geom.Shape
	dims   int
	faults *fault.Set
	// sEff/dEff are the fixed coordinates of the effective S-XB and D-XB
	// lines after fault substitution ("if the XB connected to the S-XB is
	// faulty, another XB ... substitutes for the S-XB").
	sEff geom.Coord
	dEff geom.Coord
	// one[k] is the shared read-only output list {k}: decisions with a
	// single output allocate nothing (the kernel copies Outs).
	one [][]int
}

var _ topo.Policy = (*Policy)(nil)

// newPolicy fills in what New and NewPinned share.
func newPolicy(cfg Config) (*Policy, error) {
	if cfg.Shape.Dims() < 1 {
		return nil, fmt.Errorf("routing: config needs a shape")
	}
	p := &Policy{cfg: cfg, shape: cfg.Shape, dims: cfg.Shape.Dims(), faults: cfg.Faults}
	if p.faults == nil {
		p.faults = fault.NewSet(cfg.Shape)
	}
	ports := p.dims + 1 // a router's; a crossbar has one per point of its line
	for _, e := range cfg.Shape {
		ports = max(ports, e)
	}
	p.one = singleOuts(ports)
	return p, nil
}

// singleOuts builds the one-element output lists {0} .. {n-1} over one
// backing array.
func singleOuts(n int) [][]int {
	backing := make([]int, n)
	one := make([][]int, n)
	for k := range backing {
		backing[k] = k
		one[k] = backing[k : k+1 : k+1]
	}
	return one
}

// New validates the configuration and resolves the effective S-XB and D-XB
// under the configured faults.
func New(cfg Config) (*Policy, error) {
	p, err := newPolicy(cfg)
	if err != nil {
		return nil, err
	}
	sLine, err := p.normalizeLine(cfg.SXB, "SXB")
	if err != nil {
		return nil, err
	}
	dLine, err := p.normalizeLine(cfg.DXB, "DXB")
	if err != nil {
		return nil, err
	}
	p.sEff = p.substitute(sLine)
	p.dEff = p.substitute(dLine)
	return p, nil
}

// NewPinned builds a Policy whose effective S-XB and D-XB lines are fixed to
// the given coordinates, bypassing fault substitution. The reconfiguration
// layer uses it to reconstruct a *retired* routing generation against the
// live fault set: packets injected under an old table keep steering toward
// that table's effective lines even after a newer fault would have
// substituted them away, and the transition-safety analysis must model
// exactly those routes. Dimension 0 of both coordinates is ignored.
func NewPinned(cfg Config, sEff, dEff geom.Coord) (*Policy, error) {
	p, err := newPolicy(cfg)
	if err != nil {
		return nil, err
	}
	if p.sEff, err = p.normalizeLine(sEff, "SXB"); err != nil {
		return nil, err
	}
	if p.dEff, err = p.normalizeLine(dEff, "DXB"); err != nil {
		return nil, err
	}
	return p, nil
}

// normalizeLine checks that fixed coordinates identify a dim-0 line inside
// the shape and zeroes dimension 0.
func (p *Policy) normalizeLine(fixed geom.Coord, what string) (geom.Coord, error) {
	fixed[0] = 0
	if !p.shape.Contains(fixed) {
		return geom.Coord{}, fmt.Errorf("routing: %s fixed coordinates %v outside shape", what, fixed)
	}
	return fixed, nil
}

// substitute relocates a designated dim-0 line away from faults: if the line
// or any router on it is faulty, the next untouched dim-0 line (scanning the
// reduced lattice cyclically) substitutes for it. With no healthy candidate
// the original is kept (an over-faulted network; the routing will drop).
func (p *Policy) substitute(fixed geom.Coord) geom.Coord {
	l := geom.Line{Dim: 0, Fixed: fixed}
	if !p.faults.LineTouched(l) {
		return fixed
	}
	// Scan all dim-0 lines starting just after the configured one.
	count := p.shape.LineCount(0)
	start := p.shape.LineIndex(l)
	for i := 1; i < count; i++ {
		cand := p.shape.LineAt(0, (start+i)%count)
		if !p.faults.LineTouched(cand) {
			return cand.Fixed
		}
	}
	return fixed
}

// EffectiveSXB returns the serialized crossbar line in force (after fault
// substitution).
func (p *Policy) EffectiveSXB() geom.Line { return geom.Line{Dim: 0, Fixed: p.sEff} }

// EffectiveDXB returns the detour crossbar line in force.
func (p *Policy) EffectiveDXB() geom.Line { return geom.Line{Dim: 0, Fixed: p.dEff} }

// onLine reports whether coordinate c lies on the dim-0 line with the given
// fixed coordinates.
func (p *Policy) onLine(c, fixed geom.Coord) bool {
	for j := 1; j < p.dims; j++ {
		if c[j] != fixed[j] {
			return false
		}
	}
	return true
}

// firstFixedDiff returns the lowest dimension >= 1 in which c differs from
// fixed, or -1.
func (p *Policy) firstFixedDiff(c, fixed geom.Coord) int {
	for j := 1; j < p.dims; j++ {
		if c[j] != fixed[j] {
			return j
		}
	}
	return -1
}

// decision wraps one of the policy's own routing steps as the kernel's: a
// refusal carries no outputs and no rewrite.
func decision(outs []int, w flit.Rewrite, err error) (engine.Decision, error) {
	return engine.Decision{Outs: outs, Rewrite: w}, err
}

// RouteRouter implements topo.Policy. See the package comment for the rule
// summary; each case cites the paper section it models.
func (p *Policy) RouteRouter(net *topo.Net, c geom.Coord, in int, h *flit.Header) (engine.Decision, error) {
	return decision(p.routeRouter(c, in, h))
}

// routeRouter is RouteRouter in the policy's own terms; it does not retain h.
func (p *Policy) routeRouter(c geom.Coord, in int, h *flit.Header) ([]int, flit.Rewrite, error) {
	pePort := p.dims
	switch h.RC {
	case flit.RCNormal:
		return p.routerNormal(c, h)

	case flit.RCBroadcastRequest:
		// Section 3.2 step 1: ride dimensions 1..d-1 (in order) to the S-XB
		// line, then enter the S-XB on port 0.
		if p.onLine(c, p.sEff) {
			if p.faults.XBFaulty(geom.LineOf(c, 0)) {
				// Only possible when substitution had no healthy candidate.
				return nil, 0, fmt.Errorf("%w: serialized crossbar faulty", ErrUnreachable)
			}
			return p.one[0], 0, nil
		}
		j := p.firstFixedDiff(c, p.sEff)
		if p.faults.XBFaulty(geom.LineOf(c, j)) {
			return nil, 0, fmt.Errorf("%w: dim-%d crossbar toward S-XB faulty", ErrUnreachable, j)
		}
		return p.one[j], 0, nil

	case flit.RCBroadcast:
		// Fan rule: a router receiving a broadcast from dimension k forwards
		// to its PE and to every higher-dimension crossbar (Section 3.2
		// steps 2-4, generalized to d dimensions). A naive broadcast
		// arriving from the PE fans to every dimension.
		startDim := 0
		if in < p.dims {
			startDim = in + 1
		} else if !p.cfg.NaiveBroadcast {
			return nil, 0, fmt.Errorf("routing: broadcast packet from PE at %v without naive mode", c)
		}
		outs := []int{pePort}
		for j := startDim; j < p.dims; j++ {
			if p.faults.XBFaulty(geom.LineOf(c, j)) {
				continue // stop transmission toward the faulty crossbar
			}
			outs = append(outs, j)
		}
		return outs, 0, nil

	case flit.RCDetour:
		// Section 4: ride dimensions 1..d-1 (in order) to the D-XB line,
		// then enter the D-XB on port 0, where RC resets to normal.
		if p.onLine(c, p.dEff) {
			if p.faults.XBFaulty(geom.LineOf(c, 0)) {
				return nil, 0, fmt.Errorf("%w: detour crossbar faulty", ErrUnreachable)
			}
			return p.one[0], flit.CountDetour, nil
		}
		j := p.firstFixedDiff(c, p.dEff)
		if p.faults.XBFaulty(geom.LineOf(c, j)) {
			return nil, 0, fmt.Errorf("%w: dim-%d crossbar toward D-XB faulty", ErrUnreachable, j)
		}
		return p.one[j], flit.CountDetour, nil
	}
	return nil, 0, fmt.Errorf("routing: router %v cannot handle RC %v", c, h.RC)
}

// routerNormal is dimension-order routing with the router-side fault checks
// (a router knows which of its own crossbars are faulty).
func (p *Policy) routerNormal(c geom.Coord, h *flit.Header) ([]int, flit.Rewrite, error) {
	pePort := p.dims
	dst, pivot := h.Dst, flit.Rewrite(0)
	if h.TwoPhase && c.FirstDiff(dst, p.dims) == -1 {
		// Pivot extension: this router is the intermediate; rewrite the
		// header for the final leg and route toward the true destination.
		dst, pivot = h.FinalDst, flit.Retarget
	}
	k := c.FirstDiff(dst, p.dims)
	if k == -1 {
		return p.one[pePort], pivot, nil
	}
	if !p.faults.XBFaulty(geom.LineOf(c, k)) {
		return p.one[k], pivot, nil
	}
	// The crossbar this packet needs next is faulty: enter detour mode if
	// the detour route avoids it, else the destination is unreachable
	// (paper-scope limitation; see DESIGN.md). The router checks only the
	// identity of its own faulty crossbar — the neighbor-bits discipline.
	if p.detourUsesLine(geom.LineOf(c, k), c, dst) {
		return nil, 0, fmt.Errorf("%w: dim-%d crossbar %v faulty and the detour needs it", ErrUnreachable, k, geom.LineOf(c, k))
	}
	// The first detour leg must itself be healthy. Under the paper's
	// single-fault assumption it always is; with additional faults present
	// (beyond the guarantee) this refusal keeps packets out of dead
	// crossbars instead of silently routing into them.
	j := 0
	if !p.onLine(c, p.dEff) {
		j = p.firstFixedDiff(c, p.dEff)
	}
	if p.faults.XBFaulty(geom.LineOf(c, j)) {
		return nil, 0, fmt.Errorf("%w: detour leg dim-%d crossbar %v also faulty", ErrUnreachable, j, geom.LineOf(c, j))
	}
	return p.one[j], pivot | flit.SetRC(flit.RCDetour), nil
}

// detourWalk replays the element sequence of a detour that starts at router
// `start` and resumes dimension order after the D-XB, calling visitRouter on
// every later router and visitLine on every crossbar used. Either callback
// may stop the walk by returning true; detourWalk reports whether one did.
//
// The sequence is: ride dimensions 1..d-1 in increasing order to the D line,
// cross the D-XB (dim 0 to dst[0]), then resume dimension order to dst.
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

// RouteXB implements topo.Policy for crossbar switches.
func (p *Policy) RouteXB(net *topo.Net, l geom.Line, in int, h *flit.Header) (engine.Decision, error) {
	return decision(p.routeXB(l, in, h))
}

// routeXB is RouteXB in the policy's own terms; it does not retain h.
func (p *Policy) routeXB(l geom.Line, in int, h *flit.Header) ([]int, flit.Rewrite, error) {
	switch h.RC {
	case flit.RCNormal:
		return p.xbNormal(l, h)

	case flit.RCBroadcastRequest:
		if l.Dim == 0 && p.onLine(l.Point(in), p.sEff) {
			// This is the S-XB: serialize (the kernel's output allocation
			// does the one-at-a-time replay) and fan to every attached
			// router, faulty ones excepted (Section 3.2 step 2).
			return p.fanPorts(l, -1), flit.SetRC(flit.RCBroadcast), nil
		}
		// En route to the S line along a higher dimension.
		if l.Dim == 0 {
			return nil, 0, fmt.Errorf("routing: broadcast request entered non-serialized dim-0 crossbar %v", l)
		}
		return p.xbStep(l, p.sEff[l.Dim], 0)

	case flit.RCBroadcast:
		// Fan to every attached router except the sender and faulty routers
		// (Section 3.2 steps 3-4).
		outs := p.fanPorts(l, in)
		if len(outs) == 0 {
			return nil, 0, fmt.Errorf("%w: broadcast fan at %v has no healthy routers", ErrUnreachable, l)
		}
		return outs, 0, nil

	case flit.RCDetour:
		if l.Dim == 0 {
			// Arrival at the D-XB: reset RC to normal and resume dimension
			// order (Section 4, "the D-XB changes the RC bit from 'detour'
			// to 'normal'").
			if !p.onLine(l.Point(in), p.dEff) {
				return nil, 0, fmt.Errorf("routing: detour packet entered non-detour dim-0 crossbar %v", l)
			}
			target := h.Dst[0]
			if p.faults.RouterFaulty(l.Point(target)) {
				// Substitution keeps faults off the D line; reaching this
				// means the network is over-faulted.
				return nil, 0, fmt.Errorf("%w: router %v on detour crossbar faulty", ErrUnreachable, l.Point(target))
			}
			return p.one[target], flit.SetRC(flit.RCNormal), nil
		}
		return p.xbStep(l, p.dEff[l.Dim], flit.CountDetour)
	}
	return nil, 0, fmt.Errorf("routing: crossbar %v cannot handle RC %v", l, h.RC)
}

// xbStep forwards to one port of the crossbar, failing if the attached
// router is faulty.
func (p *Policy) xbStep(l geom.Line, port int, w flit.Rewrite) ([]int, flit.Rewrite, error) {
	if p.faults.RouterFaulty(l.Point(port)) {
		return nil, 0, fmt.Errorf("%w: router %v faulty", ErrUnreachable, l.Point(port))
	}
	return p.one[port], w, nil
}

// xbNormal is the dimension-order step across a crossbar, with the
// crossbar-side fault handling (a crossbar knows which of its routers are
// faulty): if the exit router is faulty and is not the destination's own
// router, the crossbar sets the RC bit to 'detour' and forwards to the
// designated detour router (Section 4, Fig. 8 step 2).
func (p *Policy) xbNormal(l geom.Line, h *flit.Header) ([]int, flit.Rewrite, error) {
	target := h.Dst[l.Dim]
	exit := l.Point(target)
	if !p.faults.RouterFaulty(exit) {
		return p.one[target], 0, nil
	}
	if exit == h.Dst {
		// "If an RTC is faulty, the network hardware stops transmission of
		// packets to the faulty PE."
		return nil, 0, fmt.Errorf("%w: destination router %v faulty", ErrUnreachable, exit)
	}
	dp, ok := p.faults.DetourPort(l)
	if !ok {
		return nil, 0, fmt.Errorf("%w: no healthy detour router on %v", ErrUnreachable, l)
	}
	// Would the detour — riding from the designated detour router to the D
	// line, across the D-XB, and back down dimension order — pass through
	// this faulty router again? The crossbar checks only its own neighbor's
	// coordinate: the neighbor-bits discipline.
	if p.detourVisitsRouter(exit, l.Point(dp), h.Dst) {
		return nil, 0, fmt.Errorf("%w: router %v faulty and the detour re-enters it", ErrUnreachable, exit)
	}
	return p.one[dp], flit.SetRC(flit.RCDetour), nil
}

// fanPorts lists the crossbar ports whose routers are healthy, excluding
// port `except` (pass -1 to include all).
func (p *Policy) fanPorts(l geom.Line, except int) []int {
	n := p.shape[l.Dim]
	outs := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if v == except {
			continue
		}
		if p.faults.RouterFaulty(l.Point(v)) {
			continue
		}
		outs = append(outs, v)
	}
	return outs
}
