package routing

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/topo"
)

func mustPolicy(t *testing.T, cfg Config) *Policy {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func policy43(t *testing.T) *Policy {
	return mustPolicy(t, Config{Shape: geom.MustShape(4, 3)})
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Shape: geom.MustShape(4, 3), SXB: geom.Coord{0, 5}}); err == nil {
		t.Error("out-of-shape SXB accepted")
	}
	if _, err := New(Config{Shape: geom.MustShape(4, 3), DXB: geom.Coord{0, -1}}); err == nil {
		t.Error("out-of-shape DXB accepted")
	}
	// Dimension 0 of the fixed coordinates is ignored.
	p := mustPolicy(t, Config{Shape: geom.MustShape(4, 3), SXB: geom.Coord{3, 1}})
	if p.EffectiveSXB().Fixed != (geom.Coord{0, 1}) {
		t.Errorf("SXB fixed = %v", p.EffectiveSXB().Fixed)
	}
}

func TestUnicastPathShape(t *testing.T) {
	p := policy43(t)
	// Distance-2 route (1,0) -> (2,2): RTC -> XB0 -> RTC -> XB1 -> RTC -> PE.
	path, err := p.UnicastPath(geom.Coord{1, 0}, geom.Coord{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []HopKind{HopRouter, HopXB, HopRouter, HopXB, HopRouter, HopPE}
	if len(path) != len(wantKinds) {
		t.Fatalf("path = %v", path)
	}
	for i, k := range wantKinds {
		if path[i].Kind != k {
			t.Errorf("hop %d kind = %v, want %v", i, path[i].Kind, k)
		}
		if path[i].RC != flit.RCNormal {
			t.Errorf("hop %d RC = %v", i, path[i].RC)
		}
	}
	// Dimension order: first crossbar is dim 0, second is dim 1.
	if path[1].Line.Dim != 0 || path[3].Line.Dim != 1 {
		t.Errorf("crossbar dims = %d,%d", path[1].Line.Dim, path[3].Line.Dim)
	}
	// The turn router is at (dst0, src1).
	if path[2].Coord != (geom.Coord{2, 0}) {
		t.Errorf("turn router = %v", path[2].Coord)
	}
	if path[5].Coord != (geom.Coord{2, 2}) {
		t.Errorf("delivered at %v", path[5].Coord)
	}
}

func TestUnicastSelfAndOneHop(t *testing.T) {
	p := policy43(t)
	// Self-send: router delivers straight back to the PE, no crossbars.
	path, err := p.UnicastPath(geom.Coord{1, 1}, geom.Coord{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if CrossbarHops(path) != 0 || path[len(path)-1].Kind != HopPE {
		t.Errorf("self path = %v", path)
	}
	// Same dim-0 line: exactly one crossbar ("communicate in only one hop").
	path, err = p.UnicastPath(geom.Coord{1, 1}, geom.Coord{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if CrossbarHops(path) != 1 {
		t.Errorf("one-hop path = %v", path)
	}
}

// The paper's §3.1 claim: any two PEs communicate with at most d crossbar
// hops, and dimension-order uses exactly Distance(src,dst) hops.
func TestUnicastHopsEqualDistanceEverywhere(t *testing.T) {
	for _, shape := range []geom.Shape{geom.MustShape(4, 3), geom.MustShape(7), geom.MustShape(3, 2, 4)} {
		p := mustPolicy(t, Config{Shape: shape})
		shape.Enumerate(func(src geom.Coord) bool {
			shape.Enumerate(func(dst geom.Coord) bool {
				path, err := p.UnicastPath(src, dst)
				if err != nil {
					t.Fatalf("%v->%v: %v", src, dst, err)
				}
				if got, want := CrossbarHops(path), src.Distance(dst); got != want {
					t.Fatalf("%v->%v: %d crossbar hops, want %d", src, dst, got, want)
				}
				if path[len(path)-1].Coord != dst {
					t.Fatalf("%v->%v: delivered at %v", src, dst, path[len(path)-1].Coord)
				}
				return true
			})
			return true
		})
	}
}

// Dimension-order invariant: crossbar dimensions along any fault-free path
// are strictly increasing.
func TestQuickDimensionOrder(t *testing.T) {
	shape := geom.MustShape(5, 4, 3)
	p := mustPolicy(t, Config{Shape: shape})
	f := func(a, b uint32) bool {
		src := shape.CoordOf(int(a) % shape.Size())
		dst := shape.CoordOf(int(b) % shape.Size())
		path, err := p.UnicastPath(src, dst)
		if err != nil {
			return false
		}
		prev := -1
		for _, h := range path {
			if h.Kind != HopXB {
				continue
			}
			if h.Line.Dim <= prev {
				return false
			}
			prev = h.Line.Dim
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBroadcastTreeCoversAllExactlyOnce(t *testing.T) {
	for _, shape := range []geom.Shape{geom.MustShape(4, 3), geom.MustShape(5), geom.MustShape(3, 3, 2), geom.MustShape(2, 2, 2, 2)} {
		p := mustPolicy(t, Config{Shape: shape, SXB: geom.Coord{}})
		shape.Enumerate(func(src geom.Coord) bool {
			res, err := p.BroadcastTree(src)
			if err != nil {
				t.Fatalf("shape %v src %v: %v", shape, src, err)
			}
			if len(res.Delivered) != shape.Size() {
				t.Fatalf("shape %v src %v: delivered to %d PEs, want %d", shape, src, len(res.Delivered), shape.Size())
			}
			for c, n := range res.Delivered {
				if n != 1 {
					t.Fatalf("shape %v src %v: PE %v got %d copies", shape, src, c, n)
				}
			}
			if res.DeadBranches != 0 {
				t.Errorf("shape %v src %v: %d dead branches", shape, src, res.DeadBranches)
			}
			return true
		})
	}
}

func TestNaiveBroadcastTreeCoversAll(t *testing.T) {
	shape := geom.MustShape(4, 3)
	p := mustPolicy(t, Config{Shape: shape, NaiveBroadcast: true})
	res, err := p.BroadcastTree(geom.Coord{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Delivered) != 12 {
		t.Fatalf("delivered to %d PEs", len(res.Delivered))
	}
	for c, n := range res.Delivered {
		if n != 1 {
			t.Errorf("PE %v got %d copies", c, n)
		}
	}
}

// Paper §3.2: the serialized broadcast is Y-X-Y — the request leg rides only
// higher-dimension crossbars, crosses exactly one dim-0 crossbar (the S-XB),
// and fans back out through higher dimensions.
func TestBroadcastIsYXY(t *testing.T) {
	shape := geom.MustShape(4, 3)
	p := mustPolicy(t, Config{Shape: shape, SXB: geom.Coord{0, 1}})
	// Walk the request leg statically with UnicastPath-like stepping: use the
	// policy decisions directly from the source.
	h := &flit.Header{Src: geom.Coord{3, 2}, RC: flit.RCBroadcastRequest}
	dec, err := p.RouteRouter(nil, geom.Coord{3, 2}, 2, h)
	if err != nil || len(dec.Outs) != 1 || dec.Outs[0] != 1 {
		t.Fatalf("request first hop = %+v, %v (want Y port 1)", dec, err)
	}
	// At the Y crossbar the request heads to the S row.
	dec, err = p.RouteXB(nil, geom.LineOf(geom.Coord{3, 2}, 1), 2, h)
	if err != nil || len(dec.Outs) != 1 || dec.Outs[0] != 1 {
		t.Fatalf("request Y step = %+v, %v (want port 1 = S row)", dec, err)
	}
	// At the router on the S line it enters the S-XB (port 0).
	dec, err = p.RouteRouter(nil, geom.Coord{3, 1}, 1, h)
	if err != nil || len(dec.Outs) != 1 || dec.Outs[0] != 0 {
		t.Fatalf("request S-line hop = %+v, %v (want X port 0)", dec, err)
	}
	// The S-XB fans to all four routers and flips RC to broadcast.
	dec, err = p.RouteXB(nil, p.EffectiveSXB(), 3, h)
	if err != nil || len(dec.Outs) != 4 {
		t.Fatalf("S-XB fan = %+v, %v", dec, err)
	}
	if dec.Rewrite != flit.SetRC(flit.RCBroadcast) {
		t.Fatalf("S-XB fan rewrite = %#x, want RC := broadcast alone", dec.Rewrite)
	}
	if dec.Rewrite.Apply(h); h.RC != flit.RCBroadcast {
		t.Errorf("S-XB rewrite RC = %v", h.RC)
	}
	// A router on the S line fans to PE and its dim-1 crossbar.
	h2 := &flit.Header{RC: flit.RCBroadcast}
	dec, err = p.RouteRouter(nil, geom.Coord{0, 1}, 0, h2)
	if err != nil || len(dec.Outs) != 2 {
		t.Fatalf("S-line router fan = %+v, %v", dec, err)
	}
	// A dim-1 crossbar fans to every router except the sender.
	dec, err = p.RouteXB(nil, geom.LineOf(geom.Coord{0, 1}, 1), 1, h2)
	if err != nil || len(dec.Outs) != 2 {
		t.Fatalf("Y-XB fan = %+v, %v", dec, err)
	}
	for _, o := range dec.Outs {
		if o == 1 {
			t.Error("Y-XB fan includes the sending row")
		}
	}
	// A router off the S line receiving from dim 1 delivers to its PE only.
	dec, err = p.RouteRouter(nil, geom.Coord{0, 2}, 1, h2)
	if err != nil || len(dec.Outs) != 1 || dec.Outs[0] != 2 {
		t.Fatalf("leaf router fan = %+v, %v", dec, err)
	}
}

// --- Fault scenarios ---

func withFaults(t *testing.T, shape geom.Shape, cfg Config, fs ...fault.Fault) *Policy {
	t.Helper()
	set := fault.NewSet(shape)
	for _, f := range fs {
		if err := set.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Shape = shape
	cfg.Faults = set
	return mustPolicy(t, cfg)
}

// Paper Fig. 8: point-to-point detour around a faulty turn router. The RC
// sequence must be normal -> detour (set by the X-XB) -> normal (reset by
// the D-XB), and the delivered packet must look like a normal one.
func TestDetourPathFigure8(t *testing.T) {
	shape := geom.MustShape(4, 3)
	// Fault the turn router for (0,0) -> (2,2): router (2,0).
	p := withFaults(t, shape, Config{SXB: geom.Coord{0, 1}, DXB: geom.Coord{0, 1}}, fault.RouterFault(geom.Coord{2, 0}))
	path, err := p.UnicastPath(geom.Coord{0, 0}, geom.Coord{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if DetourLength(path) == 0 {
		t.Fatalf("no detour hops in %v", path)
	}
	// Never touches the faulty router.
	for _, h := range path {
		if h.Kind == HopRouter && h.Coord == (geom.Coord{2, 0}) {
			t.Fatalf("path visits faulty router: %v", path)
		}
	}
	// RC transitions: starts normal, becomes detour, ends normal at the PE.
	if path[0].RC != flit.RCNormal {
		t.Errorf("first RC = %v", path[0].RC)
	}
	last := path[len(path)-1]
	if last.Kind != HopPE || last.RC != flit.RCNormal || last.Coord != (geom.Coord{2, 2}) {
		t.Errorf("delivery hop = %v", last)
	}
	// The detour rides the D-XB (row 1).
	sawDXB := false
	for _, h := range path {
		if h.Kind == HopXB && h.Line == p.EffectiveDXB() && h.RC == flit.RCDetour {
			sawDXB = true
		}
	}
	if !sawDXB {
		t.Errorf("detour did not pass the D-XB: %v", path)
	}
	// Paper Fig. 8 step 2: the X-XB forwards to the designated detour router,
	// the lowest-indexed healthy one (router (0,0) here).
	for i, h := range path {
		if h.Kind == HopXB && h.Line == geom.LineOf(geom.Coord{0, 0}, 0) {
			if h.Out != 0 {
				t.Errorf("detour port = %d, want 0", h.Out)
			}
			if path[i+1].Kind != HopRouter || path[i+1].RC != flit.RCDetour {
				t.Errorf("hop after X-XB = %v", path[i+1])
			}
		}
	}
}

// Exhaustive single-router-fault sweep on 2D: every source/destination pair
// with healthy endpoints is deliverable, and no delivered path touches the
// fault.
func TestRouterFaultExhaustive2D(t *testing.T) {
	shape := geom.MustShape(4, 3)
	shape.Enumerate(func(bad geom.Coord) bool {
		p := withFaults(t, shape, Config{}, fault.RouterFault(bad))
		shape.Enumerate(func(src geom.Coord) bool {
			shape.Enumerate(func(dst geom.Coord) bool {
				path, err := p.UnicastPath(src, dst)
				switch {
				case src == bad || dst == bad:
					if err == nil {
						t.Fatalf("fault %v: %v->%v should be unreachable", bad, src, dst)
					}
					if !errors.Is(err, ErrUnreachable) {
						t.Fatalf("fault %v: %v->%v error %v is not ErrUnreachable", bad, src, dst, err)
					}
				default:
					if err != nil {
						t.Fatalf("fault %v: %v->%v unexpectedly unreachable: %v", bad, src, dst, err)
					}
					for _, h := range path {
						if h.Kind == HopRouter && h.Coord == bad {
							t.Fatalf("fault %v: %v->%v path visits fault: %v", bad, src, dst, path)
						}
					}
				}
				return true
			})
			return true
		})
		return true
	})
}

// A detour happens exactly when the dimension-order turn router is the fault
// (and it is not the destination's own router).
func TestDetourTriggersExactlyAtTurnRouter(t *testing.T) {
	shape := geom.MustShape(4, 3)
	bad := geom.Coord{2, 1}
	p := withFaults(t, shape, Config{}, fault.RouterFault(bad))
	shape.Enumerate(func(src geom.Coord) bool {
		shape.Enumerate(func(dst geom.Coord) bool {
			if src == bad || dst == bad {
				return true
			}
			path, err := p.UnicastPath(src, dst)
			if err != nil {
				t.Fatalf("%v->%v: %v", src, dst, err)
			}
			turn := geom.Coord{dst[0], src[1]}
			wantDetour := turn == bad && dst != turn && src[0] != dst[0]
			if (DetourLength(path) > 0) != wantDetour {
				t.Fatalf("%v->%v: detour=%d, wantDetour=%v (path %v)", src, dst, DetourLength(path), wantDetour, path)
			}
			return true
		})
		return true
	})
}

// Faulty dim-0 crossbar: sources on that line detour through their dim-1
// crossbar to the D-XB; everyone stays reachable.
func TestXB0FaultExhaustive2D(t *testing.T) {
	shape := geom.MustShape(4, 3)
	for row := 0; row < 3; row++ {
		badLine := geom.Line{Dim: 0, Fixed: geom.Coord{0, row}}
		p := withFaults(t, shape, Config{}, fault.XBFault(badLine))
		shape.Enumerate(func(src geom.Coord) bool {
			shape.Enumerate(func(dst geom.Coord) bool {
				path, err := p.UnicastPath(src, dst)
				if err != nil {
					t.Fatalf("fault %v: %v->%v: %v", badLine, src, dst, err)
				}
				for _, h := range path {
					if h.Kind == HopXB && h.Line == badLine {
						t.Fatalf("fault %v: %v->%v rides the faulty crossbar: %v", badLine, src, dst, path)
					}
				}
				wantDetour := src[1] == row && src[0] != dst[0]
				if (DetourLength(path) > 0) != wantDetour {
					t.Fatalf("fault %v: %v->%v detour=%d want %v", badLine, src, dst, DetourLength(path), wantDetour)
				}
				return true
			})
			return true
		})
	}
}

// Faulty last-dimension crossbar: the paper's facility cannot detour around
// it (the detour would need a second non-dimension-order turn), so only
// destinations not requiring it stay reachable. See DESIGN.md.
func TestXB1FaultSemantics2D(t *testing.T) {
	shape := geom.MustShape(4, 3)
	badLine := geom.Line{Dim: 1, Fixed: geom.Coord{2, 0}} // column 2
	p := withFaults(t, shape, Config{}, fault.XBFault(badLine))
	shape.Enumerate(func(src geom.Coord) bool {
		shape.Enumerate(func(dst geom.Coord) bool {
			_, err := p.UnicastPath(src, dst)
			needsBadXB := dst[0] == 2 && src[1] != dst[1]
			if needsBadXB && !errors.Is(err, ErrUnreachable) {
				t.Fatalf("%v->%v: want unreachable, got %v", src, dst, err)
			}
			if !needsBadXB && err != nil {
				t.Fatalf("%v->%v: %v", src, dst, err)
			}
			return true
		})
		return true
	})
}

// S-XB substitution: when the configured serialized crossbar (or a router on
// it) is faulty, another dim-0 crossbar takes over and broadcasts still
// reach every healthy PE.
func TestSXBSubstitution(t *testing.T) {
	shape := geom.MustShape(4, 3)
	cases := []fault.Fault{
		fault.XBFault(geom.Line{Dim: 0, Fixed: geom.Coord{0, 1}}), // S-XB itself
		fault.RouterFault(geom.Coord{2, 1}),                       // a router on the S line
	}
	for _, f := range cases {
		p := withFaults(t, shape, Config{SXB: geom.Coord{0, 1}, DXB: geom.Coord{0, 1}}, f)
		if p.EffectiveSXB().Fixed[1] == 1 {
			t.Fatalf("fault %v: S-XB not substituted", f)
		}
		if p.EffectiveDXB() != p.EffectiveSXB() {
			t.Fatalf("fault %v: D-XB (%v) diverged from S-XB (%v)", f, p.EffectiveDXB(), p.EffectiveSXB())
		}
		res, err := p.BroadcastTree(geom.Coord{3, 2})
		if err != nil {
			t.Fatalf("fault %v: %v", f, err)
		}
		want := shape.Size()
		if f.Kind == fault.KindRouter {
			want-- // the faulty router's PE is cut off
		}
		if len(res.Delivered) != want {
			t.Fatalf("fault %v: broadcast reached %d PEs, want %d", f, len(res.Delivered), want)
		}
		for c, n := range res.Delivered {
			if n != 1 {
				t.Errorf("fault %v: PE %v got %d copies", f, c, n)
			}
			if f.Kind == fault.KindRouter && c == f.Coord {
				t.Errorf("fault %v: delivered to the dead PE", f)
			}
		}
	}
}

// Broadcast with a faulty router elsewhere: every healthy PE still gets
// exactly one copy ("the network hardware stops transmission of packets to
// the faulty PE").
func TestBroadcastSkipsFaultyRouterExhaustive(t *testing.T) {
	shape := geom.MustShape(3, 3)
	shape.Enumerate(func(bad geom.Coord) bool {
		p := withFaults(t, shape, Config{}, fault.RouterFault(bad))
		shape.Enumerate(func(src geom.Coord) bool {
			if src == bad {
				return true
			}
			res, err := p.BroadcastTree(src)
			if err != nil {
				t.Fatalf("fault %v src %v: %v", bad, src, err)
			}
			if len(res.Delivered) != shape.Size()-1 {
				t.Fatalf("fault %v src %v: reached %d PEs", bad, src, len(res.Delivered))
			}
			if _, hit := res.Delivered[bad]; hit {
				t.Fatalf("fault %v src %v: delivered to dead PE", bad, src)
			}
			for _, n := range res.Delivered {
				if n != 1 {
					t.Fatalf("fault %v src %v: duplicate copies", bad, src)
				}
			}
			return true
		})
		return true
	})
}

// oracleUnreachable re-derives, from the spec alone, whether the detour
// facility can deliver src->dst with the given faulty router, independent of
// the Policy implementation. Unreachability requires (a) the fault to be a
// turn router of the dimension-order route, and (b) the detour walk — from
// the designated detour router (lowest healthy index on the detecting
// crossbar), over dims 1..d-1 to the D line, across the D-XB, then dimension
// order to dst — to pass through the fault again.
func oracleUnreachable(src, dst, bad, dEff geom.Coord) bool {
	const d = 3
	// Routers of the dimension-order route.
	pos := src
	var turns []geom.Coord
	var detectDim = -1
	for k := 0; k < d; k++ {
		if pos[k] != dst[k] {
			pos[k] = dst[k]
			turns = append(turns, pos)
			if pos == bad && detectDim == -1 {
				detectDim = k
			}
		}
	}
	if detectDim == -1 {
		return false // fault not on the route: always deliverable
	}
	// The detecting crossbar is the dim-detectDim line through bad; the
	// detour router is its lowest healthy index.
	line := geom.LineOf(bad, detectDim)
	start := line.Point(0)
	if start == bad {
		start = line.Point(1)
	}
	// Walk the detour and resumed route.
	pos = start
	for j := 1; j < d; j++ {
		if pos[j] != dEff[j] {
			pos[j] = dEff[j]
			if pos == bad {
				return true
			}
		}
	}
	pos[0] = dst[0]
	if pos == bad {
		return true
	}
	for j := 1; j < d; j++ {
		if pos[j] != dst[j] {
			pos[j] = dst[j]
			if pos == bad {
				return true
			}
		}
	}
	return false
}

// 3D router-fault sweep: each pair is either delivered avoiding the fault or
// reported unreachable — and unreachable happens only when the spec oracle
// agrees the facility cannot deliver.
func TestRouterFaultSweep3D(t *testing.T) {
	shape := geom.MustShape(3, 3, 2)
	bads := []geom.Coord{{1, 1, 0}, {2, 0, 1}, {0, 2, 0}}
	for _, bad := range bads {
		p := withFaults(t, shape, Config{}, fault.RouterFault(bad))
		dEff := p.EffectiveDXB().Fixed
		reached, unreachable := 0, 0
		shape.Enumerate(func(src geom.Coord) bool {
			shape.Enumerate(func(dst geom.Coord) bool {
				if src == bad || dst == bad {
					return true
				}
				path, err := p.UnicastPath(src, dst)
				if err == nil {
					reached++
					for _, h := range path {
						if h.Kind == HopRouter && h.Coord == bad {
							t.Fatalf("fault %v: %v->%v touches fault", bad, src, dst)
						}
					}
					if path[len(path)-1].Coord != dst {
						t.Fatalf("fault %v: %v->%v misdelivered", bad, src, dst)
					}
					return true
				}
				unreachable++
				if !errors.Is(err, ErrUnreachable) {
					t.Fatalf("fault %v: %v->%v: %v", bad, src, dst, err)
				}
				if !oracleUnreachable(src, dst, bad, dEff) {
					t.Fatalf("fault %v: %v->%v unreachable but oracle says deliverable: %v", bad, src, dst, err)
				}
				return true
			})
			return true
		})
		if reached == 0 {
			t.Fatalf("fault %v: nothing reachable", bad)
		}
		t.Logf("fault %v: %d reachable, %d unreachable pairs", bad, reached, unreachable)
	}
}

func TestBroadcastRequestBlockedByColumnFault(t *testing.T) {
	shape := geom.MustShape(4, 3)
	// Column 3's dim-1 crossbar is faulty; sources at (3, y != sEff) cannot
	// reach the S line.
	p := withFaults(t, shape, Config{SXB: geom.Coord{0, 0}}, fault.XBFault(geom.Line{Dim: 1, Fixed: geom.Coord{3, 0}}))
	if _, err := p.BroadcastTree(geom.Coord{3, 2}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("blocked request error = %v", err)
	}
	// A source already on the S line broadcasts fine; column-3 PEs off the S
	// line are missed.
	res, err := p.BroadcastTree(geom.Coord{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Delivered) != shape.Size()-2 { // (3,1) and (3,2) missed
		t.Errorf("delivered %d PEs", len(res.Delivered))
	}
}

func TestDetourHopCounting(t *testing.T) {
	shape := geom.MustShape(4, 3)
	p := withFaults(t, shape, Config{}, fault.RouterFault(geom.Coord{2, 0}))
	path, err := p.UnicastPath(geom.Coord{0, 0}, geom.Coord{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	dl := DetourLength(path)
	if dl < 3 {
		t.Errorf("detour length = %d, want >= 3 (detour router, Y-XB, D-line router, D-XB)", dl)
	}
	if CrossbarHops(path) <= 2 {
		t.Errorf("detour path crossbar hops = %d, want > direct 2", CrossbarHops(path))
	}
}

func TestHopString(t *testing.T) {
	h := Hop{Kind: HopRouter, Coord: geom.Coord{1, 2}, RC: flit.RCDetour, Out: 0}
	if got := h.String(); !strings.Contains(got, "RTC(1,2)") || !strings.Contains(got, "detour") {
		t.Errorf("Hop.String = %q", got)
	}
	pe := Hop{Kind: HopPE, Coord: geom.Coord{1, 2}}
	if got := pe.String(); got != "PE(1,2)" {
		t.Errorf("PE hop = %q", got)
	}
	xb := Hop{Kind: HopXB, Line: geom.Line{Dim: 1, Fixed: geom.Coord{3, 0}}, RC: flit.RCNormal, Out: 2}
	if got := xb.String(); !strings.Contains(got, "XB1(3,0)") {
		t.Errorf("XB hop = %q", got)
	}
}

func TestOneDimensionalNetwork(t *testing.T) {
	shape := geom.MustShape(6)
	p := mustPolicy(t, Config{Shape: shape})
	path, err := p.UnicastPath(geom.Coord{1}, geom.Coord{4})
	if err != nil {
		t.Fatal(err)
	}
	if CrossbarHops(path) != 1 {
		t.Errorf("1D path = %v", path)
	}
	res, err := p.BroadcastTree(geom.Coord{3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Delivered) != 6 {
		t.Errorf("1D broadcast reached %d", len(res.Delivered))
	}
	// A faulty router in 1D cuts off only its own PE...
	p = withFaults(t, shape, Config{}, fault.RouterFault(geom.Coord{2}))
	if _, err := p.UnicastPath(geom.Coord{1}, geom.Coord{4}); err != nil {
		t.Errorf("1D fault blocked an unrelated pair: %v", err)
	}
	if _, err := p.UnicastPath(geom.Coord{1}, geom.Coord{2}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("1D dead PE reachable: %v", err)
	}
}

func TestSourceRouterFaultIsError(t *testing.T) {
	shape := geom.MustShape(4, 3)
	p := withFaults(t, shape, Config{}, fault.RouterFault(geom.Coord{1, 1}))
	if _, err := p.UnicastPath(geom.Coord{1, 1}, geom.Coord{0, 0}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("faulty source error = %v", err)
	}
	if _, err := p.BroadcastTree(geom.Coord{1, 1}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("faulty broadcast source error = %v", err)
	}
}

// In the Fig. 9 configuration (D-XB != S-XB) the static routes are still
// correct — the deadlock is purely dynamic. Paths must detour via the
// configured D-XB, not the S-XB.
func TestSeparateDXBStaticRoutes(t *testing.T) {
	shape := geom.MustShape(4, 3)
	p := withFaults(t, shape, Config{SXB: geom.Coord{0, 0}, DXB: geom.Coord{0, 2}}, fault.RouterFault(geom.Coord{2, 1}))
	if p.EffectiveSXB() == p.EffectiveDXB() {
		t.Fatal("S-XB and D-XB should differ in this configuration")
	}
	path, err := p.UnicastPath(geom.Coord{0, 1}, geom.Coord{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	sawD := false
	for _, h := range path {
		if h.Kind == HopXB && h.Line == p.EffectiveDXB() {
			sawD = true
		}
		if h.Kind == HopXB && h.Line == p.EffectiveSXB() {
			t.Errorf("detour rode the S-XB in separate-D mode: %v", path)
		}
	}
	if !sawD {
		t.Errorf("detour missed the D-XB: %v", path)
	}
}

// Substitution property: whenever an untouched dim-0 line exists, the
// effective S-XB/D-XB land on one, for any single fault.
func TestQuickSubstitutionAvoidsFaults(t *testing.T) {
	shape := geom.MustShape(4, 4)
	f := func(rawFault, rawCfg uint32) bool {
		set := fault.NewSet(shape)
		// Alternate router and dim-0 crossbar faults.
		if rawFault%2 == 0 {
			if err := set.Add(fault.RouterFault(shape.CoordOf(int(rawFault/2) % shape.Size()))); err != nil {
				return false
			}
		} else {
			l := geom.Line{Dim: 0, Fixed: geom.Coord{0, int(rawFault/2) % 4}}
			if err := set.Add(fault.XBFault(l)); err != nil {
				return false
			}
		}
		cfg := Config{Shape: shape, SXB: geom.Coord{0, int(rawCfg) % 4}, Faults: set}
		p, err := New(cfg)
		if err != nil {
			return false
		}
		return !set.LineTouched(p.EffectiveSXB()) && !set.LineTouched(p.EffectiveDXB())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Broadcast tree depth bound: the Y-X-Y scheme is request (<= d-1 crossbar
// legs) + S-XB + fan (<= d-1 legs); element depth is therefore bounded by
// 2*(2*(d-1)) + 2 + 1 elements.
func TestBroadcastDepthBound(t *testing.T) {
	for _, extents := range [][]int{{4, 4}, {3, 3, 3}, {2, 3, 2, 3}} {
		shape := geom.MustShape(extents...)
		p := mustPolicy(t, Config{Shape: shape})
		d := shape.Dims()
		bound := 4*(d-1) + 3
		shape.Enumerate(func(src geom.Coord) bool {
			res, err := p.BroadcastTree(src)
			if err != nil {
				t.Fatalf("%v: %v", src, err)
			}
			if res.Depth > bound {
				t.Fatalf("shape %v src %v: depth %d > bound %d", shape, src, res.Depth, bound)
			}
			return true
		})
	}
}

// Detoured paths are bounded: a single detour adds at most 2*(d-1) + 2
// crossbar traversals over the direct route.
func TestQuickDetourPathBound(t *testing.T) {
	shape := geom.MustShape(4, 4)
	f := func(rawBad, rawSrc, rawDst uint32) bool {
		bad := shape.CoordOf(int(rawBad) % shape.Size())
		src := shape.CoordOf(int(rawSrc) % shape.Size())
		dst := shape.CoordOf(int(rawDst) % shape.Size())
		if src == bad || dst == bad {
			return true
		}
		set := fault.NewSet(shape)
		if err := set.Add(fault.RouterFault(bad)); err != nil {
			return false
		}
		p, err := New(Config{Shape: shape, Faults: set})
		if err != nil {
			return false
		}
		path, err := p.UnicastPath(src, dst)
		if err != nil {
			return true // unreachable pairs are out of scope for the bound
		}
		direct := src.Distance(dst)
		limit := direct + 2*(shape.Dims()-1) + 2
		return CrossbarHops(path) <= limit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Regression: with both the source's dim-0 and dim-1 crossbars faulty (two
// faults — beyond the paper's guarantee), the detour initiation must refuse
// rather than route into the second dead crossbar. Found by the E13
// two-fault sweep.
func TestDetourRefusesSecondFaultyLeg(t *testing.T) {
	shape := geom.MustShape(4, 4)
	p := withFaults(t, shape, Config{},
		fault.XBFault(geom.Line{Dim: 0, Fixed: geom.Coord{0, 0}}),
		fault.XBFault(geom.Line{Dim: 1, Fixed: geom.Coord{0, 0}}))
	// (0,0) needs dim-0 traversal; its row crossbar is dead, and so is the
	// column crossbar the detour's first leg would ride.
	if _, err := p.UnicastPath(geom.Coord{0, 0}, geom.Coord{1, 0}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
	// No delivered path under this fault pair may touch either fault.
	shape.Enumerate(func(src geom.Coord) bool {
		shape.Enumerate(func(dst geom.Coord) bool {
			if src == dst {
				return true
			}
			path, err := p.UnicastPath(src, dst)
			if err != nil {
				return true
			}
			for _, h := range path {
				if h.Kind == HopXB && (h.Line == geom.Line{Dim: 0, Fixed: geom.Coord{0, 0}} || h.Line == geom.Line{Dim: 1, Fixed: geom.Coord{0, 0}}) {
					t.Fatalf("%v->%v rides a dead crossbar: %v", src, dst, path)
				}
			}
			return true
		})
		return true
	})
}

func TestVCPolicyEscapeLaneIsScaledEscape(t *testing.T) {
	// VCPolicy routes the escape lane with a lane-scaled copy of the escape
	// policy: every lane-0 decision, fans included, is the escape policy's
	// with each output k renumbered k·vcs (the PE port d included), and
	// every refusal is the escape policy's.
	shape := geom.MustShape(4, 3, 2)
	const vcs = 3
	for _, f := range []*fault.Fault{nil, {Kind: fault.KindRouter, Coord: geom.Coord{1, 1, 0}}, {Kind: fault.KindXB, Line: geom.LineOf(geom.Coord{2, 0, 1}, 1)}} {
		faults := fault.NewSet(shape)
		if f != nil {
			if err := faults.Add(*f); err != nil {
				t.Fatal(err)
			}
		}
		p := mustPolicy(t, Config{Shape: shape, Faults: faults})
		vp, err := NewVC(p, vcs)
		if err != nil {
			t.Fatal(err)
		}
		check := func(where string, h flit.Header, want, got engine.Decision, wantErr, gotErr error) {
			t.Helper()
			scaled := make([]int, len(want.Outs))
			for i, o := range want.Outs {
				scaled[i] = o * vcs
			}
			if !slices.Equal(got.Outs, scaled) || got.Rewrite != want.Rewrite || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("fault %v, %s, %v: VCPolicy %v %v %v, escape %v %v %v", f, where, h.RC, got.Outs, got.Rewrite, gotErr, want.Outs, want.Rewrite, wantErr)
			}
		}
		var headers []flit.Header
		for _, rc := range []flit.RC{flit.RCBroadcastRequest, flit.RCBroadcast} {
			headers = append(headers, flit.Header{RC: rc})
		}
		shape.Enumerate(func(dst geom.Coord) bool {
			headers = append(headers, flit.Header{RC: flit.RCNormal, Dst: dst}, flit.Header{RC: flit.RCDetour, Dst: dst})
			return true
		})
		shape.Enumerate(func(c geom.Coord) bool {
			for in := 0; in < shape.Dims(); in++ { // lane 0 of each wire: escape-bound
				for _, h := range headers {
					want, wantErr := p.RouteRouter(nil, c, in, &h)
					got, gotErr := vp.RouteRouter(nil, c, in*vcs, &h)
					check(fmt.Sprintf("router %v in %d", c, in), h, want, got, wantErr, gotErr)
				}
			}
			return true
		})
		for _, l := range shape.Lines() {
			for in := 0; in < shape[l.Dim]; in++ {
				for _, h := range headers {
					want, wantErr := p.RouteXB(nil, l, in, &h)
					got, gotErr := vp.RouteXB(nil, l, in*vcs, &h)
					check(fmt.Sprintf("crossbar %v in %d", l, in), h, want, got, wantErr, gotErr)
				}
			}
		}
	}
}

func TestWideCrossbarFan(t *testing.T) {
	// A fan key's mask holds 64 ports; a wider crossbar lists the ports past
	// them after the interned list, in a copy. Its fan must still be every
	// healthy port but the sender's, ascending, at either lane scale, and no
	// fan may write into another's list (all are checked after all are made).
	const extent, vcs = 70, 2
	shape := geom.MustShape(extent)
	faulty := []int{3, 66}
	faults := fault.NewSet(shape)
	for _, x := range faulty {
		if err := faults.Add(fault.RouterFault(geom.Coord{x})); err != nil {
			t.Fatal(err)
		}
	}
	p := mustPolicy(t, Config{Shape: shape, Faults: faults})
	vp, err := NewVC(p, vcs)
	if err != nil {
		t.Fatal(err)
	}
	line := geom.LineOf(geom.Coord{}, 0)
	type fan struct {
		scale, except int
		got           []int
	}
	var fans []fan
	for _, pol := range []*Policy{p, &vp.escape} {
		for _, except := range []int{-1, 0, 3, 63, 64, 65, 66, 69} {
			fans = append(fans, fan{pol.scale, except, pol.fanPorts(line, except)})
		}
	}
	req, err := p.RouteXB(nil, line, 5, &flit.Header{RC: flit.RCBroadcastRequest})
	if err != nil {
		t.Fatal(err)
	}
	fans = append(fans, fan{1, -1, req.Outs})
	for _, f := range fans {
		var want []int
		for v := 0; v < extent; v++ {
			if v != f.except && !slices.Contains(faulty, v) {
				want = append(want, v*f.scale)
			}
		}
		if !slices.Equal(f.got, want) {
			t.Errorf("scale %d, sender %d: fan %v, want %v", f.scale, f.except, f.got, want)
		}
	}
}

func TestFanListsSharedAcrossGoroutines(t *testing.T) {
	// The fan lists are interned once for the whole process, so policies
	// deciding on several goroutines at once (a parallel sweep's machines)
	// build and read them together. Lane counts no other test uses make the
	// goroutines build the lists as well as read them; each must decide
	// what a lone policy decides afterwards, for every shape and fault.
	type fanCase struct {
		cfg Config
		vcs int
	}
	var cases []fanCase
	for _, shape := range []geom.Shape{geom.MustShape(4, 4), geom.MustShape(3, 4, 2), geom.MustShape(5)} {
		faults := fault.NewSet(shape)
		if err := faults.Add(fault.RouterFault(shape.CoordOf(shape.Size() / 2))); err != nil {
			t.Fatal(err)
		}
		for _, set := range []*fault.Set{nil, faults} {
			for _, vcs := range []int{1, 5, 6, 7} {
				cases = append(cases, fanCase{Config{Shape: shape, Faults: set}, vcs})
			}
		}
	}
	// fans renders every fan decision of a fresh policy, lane-scaled.
	fans := func(tc fanCase) string {
		p, err := New(tc.cfg)
		if err != nil {
			return err.Error()
		}
		var pol topo.Policy = p
		if tc.vcs > 1 {
			if pol, err = NewVC(p, tc.vcs); err != nil {
				return err.Error()
			}
		}
		s := ""
		req, fan := flit.Header{RC: flit.RCBroadcastRequest}, flit.Header{RC: flit.RCBroadcast}
		p.shape.Enumerate(func(c geom.Coord) bool {
			for in := 0; in < p.dims; in++ {
				dec, err := pol.RouteRouter(nil, c, in*tc.vcs, &fan)
				s += fmt.Sprint(dec.Outs, err)
			}
			return true
		})
		for _, l := range p.shape.Lines() {
			for in := 0; in < p.shape[l.Dim]; in++ {
				dec, err := pol.RouteXB(nil, l, in*tc.vcs, &fan)
				s += fmt.Sprint(dec.Outs, err)
				dec, err = pol.RouteXB(nil, l, in*tc.vcs, &req)
				s += fmt.Sprint(dec.Outs, err)
			}
		}
		return s
	}
	const goroutines = 4
	got := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]string, len(cases))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cases {
				k := (i + g*5) % len(cases)
				got[g][k] = fans(cases[k])
			}
		}()
	}
	wg.Wait()
	for k, tc := range cases {
		want := fans(tc)
		for g := range got {
			if got[g][k] != want {
				t.Errorf("goroutine %d, %v with %d lanes: fans differ from a lone policy's", g, tc.cfg.Shape, tc.vcs)
			}
		}
	}
}
