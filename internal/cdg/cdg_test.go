package cdg

import (
	"strings"
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
	"sr2201/internal/topo"
)

func policy(t *testing.T, cfg routing.Config) *routing.Policy {
	t.Helper()
	p, err := routing.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func faults(t *testing.T, shape geom.Shape, fs ...fault.Fault) *fault.Set {
	t.Helper()
	set := fault.NewSet(shape)
	for _, f := range fs {
		if err := set.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	return set
}

// The fault-free unified scheme must have an acyclic dependency graph on a
// spread of shapes — the static form of the paper's Section 5 theorem.
func TestUnifiedSchemeAcyclicFaultFree(t *testing.T) {
	for _, extents := range [][]int{{3, 3}, {4, 3}, {4, 4}, {3, 3, 2}, {6}} {
		shape := geom.MustShape(extents...)
		p := policy(t, routing.Config{Shape: shape})
		res, err := Analyze(p, shape, false)
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		if !res.Acyclic {
			t.Errorf("%v: CDG cyclic: %v", shape, res.Cycle)
		}
		if res.Channels == 0 || res.Edges == 0 {
			t.Errorf("%v: degenerate graph %+v", shape, res)
		}
	}
}

// The theorem must hold under every single router fault and every dim-0
// crossbar fault: the detour and broadcast still serialize at one crossbar.
func TestUnifiedSchemeAcyclicUnderSingleFaults(t *testing.T) {
	shape := geom.MustShape(4, 3)
	var all []fault.Fault
	shape.Enumerate(func(c geom.Coord) bool {
		all = append(all, fault.RouterFault(c))
		return true
	})
	for _, l := range shape.Lines() {
		all = append(all, fault.XBFault(l))
	}
	for _, f := range all {
		p := policy(t, routing.Config{Shape: shape, Faults: faults(t, shape, f)})
		res, err := Analyze(p, shape, false)
		if err != nil {
			t.Fatalf("fault %v: %v", f, err)
		}
		if !res.Acyclic {
			t.Errorf("fault %v: CDG cyclic: %v", f, res.Cycle)
		}
	}
}

// The Fig. 9 configuration (separate D-XB) must produce a dependency cycle
// through the broadcast tree.
func TestSeparateDXBCyclic(t *testing.T) {
	shape := geom.MustShape(4, 4)
	p := policy(t, routing.Config{
		Shape:  shape,
		SXB:    geom.Coord{0, 0},
		DXB:    geom.Coord{0, 3},
		Faults: faults(t, shape, fault.RouterFault(geom.Coord{2, 1})),
	})
	res, err := Analyze(p, shape, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acyclic {
		t.Fatal("separate-D-XB CDG reported acyclic; Fig. 9 contradicts this")
	}
	// The cycle must pass through the contracted broadcast tree.
	joined := strings.Join(res.Cycle, " ")
	if !strings.Contains(joined, "BROADCAST-TREE") {
		t.Errorf("cycle does not involve the broadcast tree: %v", res.Cycle)
	}
}

// Without any fault the separate D-XB is never exercised (no detours), so
// the graph stays acyclic: Fig. 9 needs the fault.
func TestSeparateDXBAcyclicWithoutFault(t *testing.T) {
	shape := geom.MustShape(4, 4)
	p := policy(t, routing.Config{Shape: shape, SXB: geom.Coord{0, 0}, DXB: geom.Coord{0, 3}})
	res, err := Analyze(p, shape, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Acyclic {
		t.Errorf("fault-free separate-D-XB cyclic: %v", res.Cycle)
	}
}

// Naive (unserialized) broadcast must be flagged as a Fig. 5 hazard.
func TestNaiveBroadcastHazard(t *testing.T) {
	shape := geom.MustShape(4, 3)
	p := policy(t, routing.Config{Shape: shape, NaiveBroadcast: true})
	res, err := Analyze(p, shape, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.NaiveHazard {
		t.Fatal("naive broadcast hazard not detected")
	}
	if res.SharedFanChannels < 2 {
		t.Errorf("shared fan channels = %d", res.SharedFanChannels)
	}
	if res.Acyclic {
		t.Error("hazardous configuration reported acyclic")
	}
}

// A 1-PE-wide network has no fan overlap and no hazard.
func TestNaiveSingleLineNoHazard(t *testing.T) {
	shape := geom.MustShape(5)
	p := policy(t, routing.Config{Shape: shape, NaiveBroadcast: true})
	res, err := Analyze(p, shape, true)
	if err != nil {
		t.Fatal(err)
	}
	// On a single crossbar two naive fans share the whole crossbar's output
	// set — still a hazard; verify the analyzer sees the overlap.
	if !res.NaiveHazard {
		t.Error("single-crossbar naive fans should still overlap")
	}
}

// TestChannelString pins the channel names certificates carry: the walker's
// numbers rendered as router and crossbar out-ports, lane-0 ports on a
// multi-lane wiring (the escape certificates').
func TestChannelString(t *testing.T) {
	shape := geom.MustShape(4, 3)
	for _, tc := range []struct {
		vcs            int
		router, xb, pe string
	}{{1, "RTC(1,2).out1", "XB1(3,0).out2", "RTC(1,2).out2"}, {2, "RTC(1,2).out2", "XB1(3,0).out4", "RTC(1,2).out4"}} {
		w := topo.NewWalker(shape, topo.MDCrossbar{Shape: shape, VCs: tc.vcs}, nil)
		router := shape.Index(geom.Coord{1, 2})
		xb := shape.LineIndex(geom.Line{Dim: 1, Fixed: geom.Coord{3, 0}})
		for _, c := range []struct {
			ch   int32
			want string
		}{{w.Channel(-1, router, 1), tc.router}, {w.Channel(1, xb, 2), tc.xb}, {w.Channel(-1, router, 2), tc.pe}} {
			if got := w.Name(c.ch); got != c.want {
				t.Errorf("vcs %d: channel %d = %q, want %q", tc.vcs, c.ch, got, c.want)
			}
			if dim, index, out := w.Port(c.ch); w.Channel(dim, index, out) != c.ch {
				t.Errorf("vcs %d: Port(%d) = %d, %d, %d does not number back", tc.vcs, c.ch, dim, index, out)
			}
		}
	}
}

// The dynamic simulator and the static analyzer must agree on the headline
// verdicts. (Dynamic evidence lives in internal/core's figure tests; here we
// assert the static side matches the same configurations.)
func TestStaticDynamicAgreement(t *testing.T) {
	shape := geom.MustShape(4, 4)
	fs := faults(t, shape, fault.RouterFault(geom.Coord{2, 1}))

	unified := policy(t, routing.Config{Shape: shape, SXB: geom.Coord{0, 0}, DXB: geom.Coord{0, 0}, Faults: fs})
	resU, err := Analyze(unified, shape, false)
	if err != nil {
		t.Fatal(err)
	}
	separate := policy(t, routing.Config{Shape: shape, SXB: geom.Coord{0, 0}, DXB: geom.Coord{0, 3}, Faults: fs})
	resS, err := Analyze(separate, shape, false)
	if err != nil {
		t.Fatal(err)
	}
	if !resU.Acyclic || resS.Acyclic {
		t.Errorf("unified acyclic=%v separate acyclic=%v; want true,false", resU.Acyclic, resS.Acyclic)
	}
}

// The pivot extension restores reachability but breaks the acyclicity
// guarantee: its second dim-0 leg is a Y->X turn away from the S-XB, and
// the channel RTC.out0 it waits on is shared with ordinary source traffic
// heading to healthy columns — closing multi-packet cycles. This is the
// static form of why the paper confines non-dimension-order turns to the
// serialized crossbar.
func TestPivotExtensionBreaksAcyclicity(t *testing.T) {
	shape := geom.MustShape(4, 4)
	f := fault.XBFault(geom.Line{Dim: 1, Fixed: geom.Coord{2, 0}})

	// Base facility under the same fault: acyclic (it simply refuses the
	// cut-off destinations).
	base := policy(t, routing.Config{Shape: shape, Faults: faults(t, shape, f)})
	resBase, err := Analyze(base, shape, false)
	if err != nil {
		t.Fatal(err)
	}
	if !resBase.Acyclic {
		t.Fatalf("base facility cyclic under %v: %v", f, resBase.Cycle)
	}

	// With the pivot: cyclic.
	piv := policy(t, routing.Config{Shape: shape, PivotLastDim: true, Faults: faults(t, shape, f)})
	resPiv, err := Analyze(piv, shape, false)
	if err != nil {
		t.Fatal(err)
	}
	if resPiv.Acyclic {
		t.Fatal("pivot-extended CDG unexpectedly acyclic")
	}
	if len(resPiv.Cycle) < 3 {
		t.Errorf("cycle suspiciously short: %v", resPiv.Cycle)
	}
}

// BenchmarkAnalyze times the certificate of the benchmark's short-vc-faulted
// machine (8x8x8 with 4 lanes, adaptive routing and one faulty router): its
// escape policy's dependence graph, every pair and every broadcast walked.
func BenchmarkAnalyze(b *testing.B) {
	shape := geom.MustShape(8, 8, 8)
	m, err := core.NewMachine(core.Config{Shape: shape, VCs: 4, Adaptive: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.AddFault(fault.RouterFault(geom.Coord{4, 2, 1})); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Analyze(m.Policy(), shape, false)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Acyclic {
			b.Fatalf("dependence cycle: %v", res.Cycle)
		}
	}
}
