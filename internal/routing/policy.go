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
	"maps"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

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
	// one[k] is the shared read-only output list {k}. Decisions hand out
	// these lists and the interned fans (fanList) rather than allocate
	// their own: the kernel copies Outs, and nothing that reads a decision
	// writes to them. Output k is network port k·scale (out): scale is 1
	// except in VCPolicy's lane-scaled copy, which shares VCPolicy's one.
	one   [][]int
	scale int
}

var _ topo.Policy = (*Policy)(nil)

// newPolicy fills in what New and NewPinned share.
func newPolicy(cfg Config) (*Policy, error) {
	if cfg.Shape.Dims() < 1 {
		return nil, fmt.Errorf("routing: config needs a shape")
	}
	p := &Policy{cfg: cfg, shape: cfg.Shape, dims: cfg.Shape.Dims(), faults: cfg.Faults, scale: 1}
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

// out is the shared output list of output k.
func (p *Policy) out(k int) []int { return p.one[k*p.scale] }

// routerFaulty reads the fault bit of the router at c, and xbFaulty that of
// the dim-k crossbar through it, by index: c lies inside the shape on every
// route, so the set's checks of a coordinate are not needed.
func (p *Policy) routerFaulty(c geom.Coord) bool {
	return p.faults.RouterFaultyAt(p.shape.Index(c))
}

func (p *Policy) xbFaulty(c geom.Coord, k int) bool {
	return p.faults.XBFaultyAt(k, p.shape.LineIndex(geom.Line{Dim: k, Fixed: c}))
}

// fanKey names one fan list: a router's PE port pe first (none when pe is
// -1), then the ports set in mask, ascending, each numbered times scale.
type fanKey struct {
	mask      uint64
	pe, scale int
}

// fans interns every fan list of the process: the lists are a function of
// their keys, built once and never changed, so policies share them across
// goroutines. A fan is a line's ports but its sender, or a router's PE port
// and higher dimensions, less the faulty ones: few lists, however many
// policies decide them. Decisions read the published table without a lock;
// a new list is added to a copy under fansMu, and the copy published.
var (
	fans   atomic.Pointer[map[fanKey][]int]
	fansMu sync.Mutex
)

// lookupFan returns k's list from the published table, if it holds one.
func lookupFan(k fanKey) ([]int, bool) {
	if t := fans.Load(); t != nil {
		l, ok := (*t)[k]
		return l, ok
	}
	return nil, false
}

// fanList returns k's interned list, read-only and capped at its length.
func fanList(k fanKey) []int {
	if l, ok := lookupFan(k); ok {
		return l
	}
	fansMu.Lock()
	defer fansMu.Unlock()
	if l, ok := lookupFan(k); ok {
		return l
	}
	var l []int
	if k.pe >= 0 {
		l = append(l, k.pe*k.scale)
	}
	for m := k.mask; m != 0; m &= m - 1 {
		l = append(l, bits.TrailingZeros64(m)*k.scale)
	}
	l = slices.Clip(l)
	next := map[fanKey][]int{k: l}
	if t := fans.Load(); t != nil {
		maps.Copy(next, *t)
	}
	fans.Store(&next)
	return l
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
// the given coordinates, bypassing fault substitution. It states what a
// *retired* routing generation decides against the live fault set: packets
// injected under an old table keep steering toward that table's effective
// lines even after a newer fault would have substituted them away. A
// generation's own Policy decides exactly so — it keeps its lines and reads
// the fault set by reference — and tests hold it to this policy. Dimension
// 0 of both coordinates is ignored.
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
func (p *Policy) onLine(c, fixed geom.Coord) bool { return agree(c, fixed, 1, p.dims) }

// agree reports whether x and y agree in dimensions lo..hi-1.
func agree(x, y geom.Coord, lo, hi int) bool {
	for j := lo; j < hi; j++ {
		if x[j] != y[j] {
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
// refusal carries no outputs and no rewrite, and renders as its error.
func (p *Policy) decision(outs []int, w flit.Rewrite, why refusal) (engine.Decision, error) {
	return engine.Decision{Outs: outs, Rewrite: w}, why.err(p.shape)
}

// RouteRouter implements topo.Policy. See the package comment for the rule
// summary; each case cites the paper section it models.
func (p *Policy) RouteRouter(net *topo.Net, c geom.Coord, in int, h *flit.Header) (engine.Decision, error) {
	return p.decision(p.routeRouter(c, in, h))
}

// routeRouter is RouteRouter in the policy's own terms; it does not retain h.
func (p *Policy) routeRouter(c geom.Coord, in int, h *flit.Header) ([]int, flit.Rewrite, refusal) {
	switch h.RC {
	case flit.RCNormal:
		return p.routerNormal(c, h)

	case flit.RCBroadcastRequest:
		// Section 3.2 step 1: ride dimensions 1..d-1 (in order) to the S-XB
		// line, then enter the S-XB on port 0.
		if p.onLine(c, p.sEff) {
			if p.xbFaulty(c, 0) {
				// Only possible when substitution had no healthy candidate.
				return nil, 0, refusal{rule: whySXBFaulty}
			}
			return p.out(0), 0, refusal{}
		}
		j := p.firstFixedDiff(c, p.sEff)
		if p.xbFaulty(c, j) {
			return nil, 0, refusal{rule: whyTowardSXB, dim: uint8(j)}
		}
		return p.out(j), 0, refusal{}

	case flit.RCBroadcast:
		// Fan rule: a router receiving a broadcast from dimension k forwards
		// to its PE and to every higher-dimension crossbar (Section 3.2
		// steps 2-4, generalized to d dimensions). A naive broadcast
		// arriving from the PE fans to every dimension.
		startDim := 0
		if in < p.dims {
			startDim = in + 1
		} else if !p.cfg.NaiveBroadcast {
			return nil, 0, p.refuseAt(whyPEBroadcast, c)
		}
		fan := fanKey{pe: p.dims, scale: p.scale}
		for j := startDim; j < p.dims; j++ {
			if p.xbFaulty(c, j) {
				continue // stop transmission toward the faulty crossbar
			}
			fan.mask |= 1 << j
		}
		return fanList(fan), 0, refusal{}

	case flit.RCDetour:
		// Section 4: ride dimensions 1..d-1 (in order) to the D-XB line,
		// then enter the D-XB on port 0, where RC resets to normal.
		if p.onLine(c, p.dEff) {
			if p.xbFaulty(c, 0) {
				return nil, 0, refusal{rule: whyDXBFaulty}
			}
			return p.out(0), flit.CountDetour, refusal{}
		}
		j := p.firstFixedDiff(c, p.dEff)
		if p.xbFaulty(c, j) {
			return nil, 0, refusal{rule: whyTowardDXB, dim: uint8(j)}
		}
		return p.out(j), flit.CountDetour, refusal{}
	}
	return nil, 0, refusal{rule: whyRouterRC, rc: h.RC, at: int32(p.shape.Index(c))}
}

// routerNormal is dimension-order routing with the router-side fault checks
// (a router knows which of its own crossbars are faulty).
func (p *Policy) routerNormal(c geom.Coord, h *flit.Header) ([]int, flit.Rewrite, refusal) {
	k := c.FirstDiff(h.Dst, p.dims)
	if k == -1 {
		return p.out(p.dims), 0, refusal{}
	}
	if !p.xbFaulty(c, k) {
		return p.out(k), 0, refusal{}
	}
	// The crossbar this packet needs next is faulty: enter detour mode if
	// the detour route avoids it, else the destination is unreachable
	// (paper-scope limitation; see DESIGN.md). The router reads its own
	// fault bit and one bit of dst — the neighbor-bits discipline.
	if p.detourRidesXB(c, k, h.Dst[k] == p.dEff[k]) {
		return nil, 0, p.refuseLine(whyDetourNeedsXB, geom.LineOf(c, k))
	}
	// The first detour leg must itself be healthy. Under the paper's
	// single-fault assumption it always is; with additional faults present
	// (beyond the guarantee) this refusal keeps packets out of dead
	// crossbars instead of silently routing into them.
	j := 0
	if !p.onLine(c, p.dEff) {
		j = p.firstFixedDiff(c, p.dEff)
	}
	if p.xbFaulty(c, j) {
		return nil, 0, p.refuseLine(whyDetourLegFaulty, geom.LineOf(c, j))
	}
	return p.out(j), flit.SetRC(flit.RCDetour), refusal{}
}

// detourRidesXB reports whether the detour from router c rides c's dim-k
// crossbar, for a destination first differing from c in dimension k and on
// the D line's coordinate k iff dstOnD. The detour rides dimensions 1..d-1
// to the D line, crosses the D-XB to dst[0], then takes dimension order, so
// it meets that crossbar only as the D-XB (k = 0, c on the D line), on the
// leg out (c on the D line in dims 1..k-1, off it in k) or on the leg back
// (c on the D line in dims k+1..d-1, dst off it in k).
func (p *Policy) detourRidesXB(c geom.Coord, k int, dstOnD bool) bool {
	if k == 0 {
		return p.onLine(c, p.dEff)
	}
	return agree(c, p.dEff, 1, k) && c[k] != p.dEff[k] || agree(c, p.dEff, k+1, p.dims) && !dstOnD
}

// detourReenters reports whether the detour from router s passes router b,
// for a destination sharing a prefix of that many dimensions with b (d: it
// is b). The leg out passes (s[0], D[1..j], s[j+1..]) for each j: it meets b
// iff b[0] = s[0] and b agrees with s from the lowest dimension a >= 1 in
// which b is off the D line. The leg back passes (dst[0..j], D[j+1..]): it
// meets b iff prefix >= S, the lowest dimension >= 1 from which b is on the
// D line through d-1.
func (p *Policy) detourReenters(b, s geom.Coord, prefix int) bool {
	a, S := 1, p.dims
	for a < p.dims && b[a] == p.dEff[a] {
		a++
	}
	for S > 1 && b[S-1] == p.dEff[S-1] {
		S--
	}
	return b[0] == s[0] && agree(b, s, a, p.dims) || prefix >= S
}

// RouteXB implements topo.Policy for crossbar switches.
func (p *Policy) RouteXB(net *topo.Net, l geom.Line, in int, h *flit.Header) (engine.Decision, error) {
	return p.decision(p.routeXB(l, in, h))
}

// routeXB is RouteXB in the policy's own terms; it does not retain h.
func (p *Policy) routeXB(l geom.Line, in int, h *flit.Header) ([]int, flit.Rewrite, refusal) {
	switch h.RC {
	case flit.RCNormal:
		return p.xbNormal(l, h)

	case flit.RCBroadcastRequest:
		if l.Dim == 0 && p.onLine(l.Point(in), p.sEff) {
			// This is the S-XB: serialize (the kernel's output allocation
			// does the one-at-a-time replay) and fan to every attached
			// router, faulty ones excepted (Section 3.2 step 2).
			return p.fanPorts(l, -1), flit.SetRC(flit.RCBroadcast), refusal{}
		}
		// En route to the S line along a higher dimension.
		if l.Dim == 0 {
			return nil, 0, p.refuseLine(whyRequestOffSXB, l)
		}
		return p.xbStep(l, p.sEff[l.Dim], 0)

	case flit.RCBroadcast:
		// Fan to every attached router except the sender and faulty routers
		// (Section 3.2 steps 3-4).
		outs := p.fanPorts(l, in)
		if len(outs) == 0 {
			return nil, 0, p.refuseLine(whyEmptyFan, l)
		}
		return outs, 0, refusal{}

	case flit.RCDetour:
		if l.Dim == 0 {
			// Arrival at the D-XB: reset RC to normal and resume dimension
			// order (Section 4, "the D-XB changes the RC bit from 'detour'
			// to 'normal'").
			if !p.onLine(l.Point(in), p.dEff) {
				return nil, 0, p.refuseLine(whyDetourOffDXB, l)
			}
			target := h.Dst[0]
			if p.routerFaulty(l.Point(target)) {
				// Substitution keeps faults off the D line; reaching this
				// means the network is over-faulted.
				return nil, 0, p.refuseAt(whyDXBRouterFaulty, l.Point(target))
			}
			return p.out(target), flit.SetRC(flit.RCNormal), refusal{}
		}
		return p.xbStep(l, p.dEff[l.Dim], flit.CountDetour)
	}
	return nil, 0, refusal{rule: whyXBRC, rc: h.RC, dim: uint8(l.Dim), at: int32(p.shape.Index(l.Fixed))}
}

// xbStep forwards to one port of the crossbar, failing if the attached
// router is faulty.
func (p *Policy) xbStep(l geom.Line, port int, w flit.Rewrite) ([]int, flit.Rewrite, refusal) {
	if p.routerFaulty(l.Point(port)) {
		return nil, 0, p.refuseAt(whyRouterFaulty, l.Point(port))
	}
	return p.out(port), w, refusal{}
}

// xbNormal is the dimension-order step across a crossbar, with the
// crossbar-side fault handling (a crossbar knows which of its routers are
// faulty): if the exit router is faulty and is not the destination's own
// router, the crossbar sets the RC bit to 'detour' and forwards to the
// designated detour router (Section 4, Fig. 8 step 2).
func (p *Policy) xbNormal(l geom.Line, h *flit.Header) ([]int, flit.Rewrite, refusal) {
	target := h.Dst[l.Dim]
	exit := l.Point(target)
	if !p.routerFaulty(exit) {
		return p.out(target), 0, refusal{}
	}
	prefix := exit.FirstDiff(h.Dst, p.dims)
	if prefix < 0 {
		// "If an RTC is faulty, the network hardware stops transmission of
		// packets to the faulty PE."
		return nil, 0, p.refuseAt(whyDstFaulty, exit)
	}
	dp, ok := p.faults.DetourPort(l)
	if !ok {
		return nil, 0, p.refuseLine(whyNoDetourRouter, l)
	}
	// Would the detour — riding from the designated detour router to the D
	// line, across the D-XB, and back down dimension order — pass through
	// this faulty router again? The crossbar reads its neighbor's fault bit
	// and how long a prefix the destination shares with that neighbor: the
	// neighbor-bits discipline.
	if p.detourReenters(exit, l.Point(dp), prefix) {
		return nil, 0, p.refuseAt(whyDetourReenters, exit)
	}
	return p.out(dp), flit.SetRC(flit.RCDetour), refusal{}
}

// fanPorts lists the crossbar ports whose routers are healthy, excluding
// port `except` (pass -1 to include all).
func (p *Policy) fanPorts(l geom.Line, except int) []int {
	fan := fanKey{pe: -1, scale: p.scale}
	var wide []int // ports past the mask's: a crossbar wider than any built
	for v := 0; v < p.shape[l.Dim]; v++ {
		switch {
		case v == except || p.faults.RouterFaulty(l.Point(v)):
		case v < 64:
			fan.mask |= 1 << v
		default:
			wide = append(wide, v*p.scale)
		}
	}
	if wide != nil {
		return append(fanList(fan), wide...) // a copy: the list is capped
	}
	return fanList(fan)
}
