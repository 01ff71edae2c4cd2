package routing

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/topo"
)

// equivalentDecision compares the algorithmic and the table decision for one
// (switch, input, header) triple: outputs, the rewrite by value (the kernel
// copies a header under "set RC normal" and moves it under "no rewrite", even
// where both leave it the same), and the refusal down to its text.
func equivalentDecision(t *testing.T, what func() string, dA, dB engine.Decision, eA, eB error) {
	t.Helper()
	if (eA != nil) != (eB != nil) || (eA != nil && eA.Error() != eB.Error()) {
		t.Fatalf("%s: error mismatch: %v vs %v", what(), eA, eB)
	}
	if eA != nil {
		if errors.Is(eA, ErrUnreachable) != errors.Is(eB, ErrUnreachable) {
			t.Fatalf("%s: ErrUnreachable identity lost: %v vs %v", what(), eA, eB)
		}
		return
	}
	if !slices.Equal(dA.Outs, dB.Outs) {
		t.Fatalf("%s: outs %v vs %v", what(), dA.Outs, dB.Outs)
	}
	if dA.Rewrite != dB.Rewrite {
		t.Fatalf("%s: rewrite %#x vs %#x", what(), dA.Rewrite, dB.Rewrite)
	}
}

// classHeaders are the headers a switch can face for one destination. Only
// the first two read it.
func classHeaders(dst geom.Coord) [4]flit.Header {
	return [4]flit.Header{
		{RC: flit.RCNormal, Dst: dst},
		{RC: flit.RCDetour, Dst: dst, DetourHops: 1},
		{RC: flit.RCBroadcastRequest},
		{RC: flit.RCBroadcast},
	}
}

// checkRouter and checkXB compare one switch's decisions for one header at
// every input port.
func checkRouter(t *testing.T, p *Policy, tp *TablePolicy, c geom.Coord, h *flit.Header) {
	t.Helper()
	for in := 0; in <= p.dims; in++ {
		dA, eA := p.RouteRouter(nil, c, in, h)
		dB, eB := tp.RouteRouter(nil, c, in, h)
		equivalentDecision(t, func() string { return fmt.Sprintf("router %v in %d rc %v dst %v", c, in, h.RC, h.Dst) }, dA, dB, eA, eB)
	}
}

func checkXB(t *testing.T, p *Policy, tp *TablePolicy, l geom.Line, h *flit.Header) {
	t.Helper()
	for in := 0; in < p.shape[l.Dim]; in++ {
		dA, eA := p.RouteXB(nil, l, in, h)
		dB, eB := tp.RouteXB(nil, l, in, h)
		equivalentDecision(t, func() string { return fmt.Sprintf("crossbar %v in %d rc %v dst %v", l, in, h.RC, h.Dst) }, dA, dB, eA, eB)
	}
}

// equivalentEverywhere compiles p and compares every (switch, in-port, RC,
// destination) with the algorithmic decision. The request and broadcast
// classes carry no destination and are compared once per switch and port.
// Then it walks both: every pair and every broadcast source must take the
// same channels and meet the same refusal.
func equivalentEverywhere(t *testing.T, p *Policy) {
	t.Helper()
	tp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	shape := p.shape
	perDst := func(check func(h *flit.Header)) {
		for di := 0; di < shape.Size(); di++ {
			hs := classHeaders(shape.CoordOf(di))
			check(&hs[0])
			check(&hs[1])
		}
		hs := classHeaders(geom.Coord{})
		check(&hs[2])
		check(&hs[3])
	}
	shape.Enumerate(func(c geom.Coord) bool {
		perDst(func(h *flit.Header) { checkRouter(t, p, tp, c, h) })
		return true
	})
	for _, l := range shape.Lines() {
		perDst(func(h *flit.Header) { checkXB(t, p, tp, l, h) })
	}
	sameWalks(t, p, tp)
}

// sameWalks walks the algorithmic and the compiled policy side by side over
// the MD crossbar, unicast from every pair and broadcast from every source,
// and compares the channel sequences, the dead branches and the refusal
// text.
func sameWalks(t *testing.T, p *Policy, tp *TablePolicy) {
	t.Helper()
	wiring := topo.MDCrossbar{Shape: p.shape, VCs: 1}
	wa, wb := topo.NewWalker(p.shape, wiring, p), topo.NewWalker(p.shape, wiring, tp)
	var ra, rb []int32
	va := func(ch int32, _ *flit.Header, _ int) { ra = append(ra, ch) }
	vb := func(ch int32, _ *flit.Header, _ int) { rb = append(rb, ch) }
	same := func(what string, da, db int, ea, eb error) {
		if errText(ea) != errText(eb) || da != db || !slices.Equal(ra, rb) {
			t.Fatalf("%s: the policy walks %v (%d dead), %v; the tables walk %v (%d dead), %v", what, ra, da, ea, rb, db, eb)
		}
		ra, rb = ra[:0], rb[:0]
	}
	p.shape.Enumerate(func(src geom.Coord) bool {
		p.shape.Enumerate(func(dst geom.Coord) bool {
			if ha, err := p.UnicastHeader(src, dst); err == nil {
				hb := ha
				same(fmt.Sprintf("unicast %v->%v", src, dst), 0, 0, wa.Unicast(&ha, va), wb.Unicast(&hb, vb))
			}
			return true
		})
		h := p.BroadcastHeader(src)
		da, ea := wa.Broadcast(&h, va)
		db, eb := wb.Broadcast(&h, vb)
		same(fmt.Sprintf("broadcast from %v", src), da, db, ea, eb)
		return true
	})
}

// placements lists every single router and crossbar fault of the shape.
func placements(shape geom.Shape) []fault.Fault {
	var out []fault.Fault
	shape.Enumerate(func(c geom.Coord) bool {
		out = append(out, fault.RouterFault(c))
		return true
	})
	for _, l := range shape.Lines() {
		out = append(out, fault.XBFault(l))
	}
	return out
}

// The compiled tables must reproduce every algorithmic decision exactly:
// every switch, every input, every RC class, every destination — fault-free,
// under every single fault, under seeded two-fault sets (half of them with a
// separate D-XB), and for retired generations pinned to their old effective
// lines against a later fault, which is what a live reconfiguration
// recompiles.
func TestTableEquivalenceExhaustive(t *testing.T) {
	for _, shape := range []geom.Shape{geom.MustShape(4, 3), geom.MustShape(4, 4, 4)} {
		all := placements(shape)
		last := shape.CoordOf(shape.Size() - 1)
		equivalentEverywhere(t, mustPolicy(t, Config{Shape: shape}))
		equivalentEverywhere(t, mustPolicy(t, Config{Shape: shape, SXB: last.WithDim(0, 0), DXB: last}))
		for i, f := range all {
			if testing.Short() && i%5 != 0 {
				continue
			}
			equivalentEverywhere(t, withFaults(t, shape, Config{}, f))
		}
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 40; i++ {
			a, b := all[rng.Intn(len(all))], all[rng.Intn(len(all))]
			if testing.Short() && i%5 != 0 {
				continue
			}
			cfg := Config{}
			if i%2 == 1 {
				cfg.DXB = last
			}
			equivalentEverywhere(t, withFaults(t, shape, cfg, a, b))

			// The generation compiled under fault a, pinned, meets fault b.
			old := withFaults(t, shape, cfg, a)
			cfg.Shape, cfg.Faults = shape, fault.NewSet(shape)
			for _, f := range []fault.Fault{a, b} {
				if err := cfg.Faults.Add(f); err != nil {
					t.Fatal(err)
				}
			}
			pinned, err := NewPinned(cfg, old.sEff, old.dEff)
			if err != nil {
				t.Fatal(err)
			}
			equivalentEverywhere(t, pinned)
		}
	}
}

// TestTableEquivalenceSampled8x8x8 compares a seeded sample of decisions on
// the 512-PE machine, where the exhaustive product is out of reach.
func TestTableEquivalenceSampled8x8x8(t *testing.T) {
	shape := geom.MustShape(8, 8, 8)
	all := placements(shape)
	rng := rand.New(rand.NewSource(8))
	pick := func() fault.Fault { return all[rng.Intn(len(all))] }
	policies := []*Policy{
		mustPolicy(t, Config{Shape: shape}),
		withFaults(t, shape, Config{}, fault.RouterFault(geom.Coord{4, 2, 1})),
		withFaults(t, shape, Config{}, fault.XBFault(geom.Line{Dim: 1, Fixed: geom.Coord{3, 0, 5}})),
		withFaults(t, shape, Config{DXB: geom.Coord{0, 7, 7}}, fault.XBFault(geom.Line{Dim: 0, Fixed: geom.Coord{0, 7, 7}})),
	}
	for i := 0; i < 6; i++ {
		cfg := Config{}
		if i%2 == 1 {
			cfg.DXB = geom.Coord{0, 5, 6}
		}
		policies = append(policies, withFaults(t, shape, cfg, pick(), pick()))
	}
	lines := shape.Lines()
	for _, p := range policies {
		tp, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		// Half the samples sit next to a fault, where the override rows are.
		var hotRouters []geom.Coord
		var hotLines []geom.Line
		for _, f := range p.faults.List() {
			if f.Kind == fault.KindRouter {
				hotRouters = append(hotRouters, f.Coord)
				for k := 0; k < p.dims; k++ {
					hotLines = append(hotLines, geom.LineOf(f.Coord, k))
				}
			} else {
				hotLines = append(hotLines, f.Line)
				hotRouters = append(hotRouters, f.Line.Point(rng.Intn(shape[f.Line.Dim])))
			}
		}
		for i := 0; i < 20_000; i++ {
			c, l := shape.CoordOf(rng.Intn(shape.Size())), lines[rng.Intn(len(lines))]
			if i%2 == 1 && len(hotLines) > 0 {
				c, l = hotRouters[rng.Intn(len(hotRouters))], hotLines[rng.Intn(len(hotLines))]
			}
			hs := classHeaders(shape.CoordOf(rng.Intn(shape.Size())))
			h := &hs[rng.Intn(len(hs))]
			checkRouter(t, p, tp, c, h)
			checkXB(t, p, tp, l, h)
		}
	}
}

// TestTableEntriesClosedForm pins the fault-free table size of the 2048-PE
// machine to the sum it should be — per router d+1 normal, 1 detour, 1
// request and d+1 broadcast entries; per crossbar along dimension k n_k
// normal, n_0 (k = 0) or 1 detour, 1 request and n_k broadcast entries — so
// no per-destination term can creep back.
func TestTableEntriesClosedForm(t *testing.T) {
	shape := geom.MustShape(8, 16, 16)
	tp, err := Compile(mustPolicy(t, Config{Shape: shape}))
	if err != nil {
		t.Fatal(err)
	}
	d := shape.Dims()
	want := shape.Size() * (2*(d+1) + 2)
	for k, extent := range shape {
		detour := 1
		if k == 0 {
			detour = extent
		}
		want += shape.LineCount(k) * (2*extent + detour + 1)
	}
	if got := tp.Entries(); got != want || want != 35_584 {
		t.Fatalf("fault-free %v tables hold %d entries, closed form says %d (35 584)", shape, got, want)
	}
	// One faulty router adds its d crossbars' dense rows and nothing else.
	faulted, err := Compile(withFaults(t, shape, Config{}, fault.RouterFault(geom.Coord{4, 2, 1})))
	if err != nil {
		t.Fatal(err)
	}
	if got := faulted.Entries(); got != want+d*shape.Size() {
		t.Fatalf("one router fault: %d entries, want %d + %d override rows of %d", got, want, d, shape.Size())
	}
}

func TestCompileRejectsPivot(t *testing.T) {
	p := mustPolicy(t, Config{Shape: geom.MustShape(4, 3), PivotLastDim: true})
	if _, err := Compile(p); err == nil {
		t.Fatal("pivot policy compiled")
	}
}

func TestTableRejectsTwoPhaseHeaders(t *testing.T) {
	p := mustPolicy(t, Config{Shape: geom.MustShape(4, 3)})
	tp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	h := &flit.Header{TwoPhase: true, Dst: geom.Coord{1, 1}}
	if _, err := tp.RouteRouter(nil, geom.Coord{0, 0}, 2, h); err == nil {
		t.Fatal("two-phase header routed by table")
	}
	if _, err := tp.RouteXB(nil, geom.LineOf(geom.Coord{0, 0}, 0), 0, h); err == nil {
		t.Fatal("two-phase header routed by table at crossbar")
	}
	bad := &flit.Header{RC: flit.RC(7)}
	if _, err := tp.RouteRouter(nil, geom.Coord{0, 0}, 2, bad); err == nil {
		t.Fatal("unknown RC routed by table")
	}
	if _, err := tp.RouteXB(nil, geom.LineOf(geom.Coord{0, 0}, 0), 0, bad); err == nil {
		t.Fatal("unknown RC routed by table at crossbar")
	}
}

// Unreachable refusals survive compilation (the stored error keeps its
// ErrUnreachable identity).
func TestTablePreservesUnreachable(t *testing.T) {
	shape := geom.MustShape(4, 3)
	p := withFaults(t, shape, Config{}, fault.XBFault(geom.Line{Dim: 1, Fixed: geom.Coord{2, 0}}))
	tp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	// The turn router for (0,0)->(2,2) refuses: Y-XB col 2 is dead.
	h := &flit.Header{RC: flit.RCNormal, Dst: geom.Coord{2, 2}}
	_, errA := p.RouteRouter(nil, geom.Coord{2, 0}, 0, h)
	_, errB := tp.RouteRouter(nil, geom.Coord{2, 0}, 0, h)
	if !errors.Is(errA, ErrUnreachable) || !errors.Is(errB, ErrUnreachable) {
		t.Fatalf("errors = %v / %v", errA, errB)
	}
}

// BenchmarkCompileTables is the in-repo counterpart of the ledger's
// routing.compile_tables_ms: the 2048-PE machine's tables, fault-free.
func BenchmarkCompileTables(b *testing.B) {
	p, err := New(Config{Shape: geom.MustShape(8, 16, 16)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tp, err := Compile(p)
		if err != nil {
			b.Fatal(err)
		}
		if tp.Entries() == 0 {
			b.Fatal("empty tables")
		}
	}
}
