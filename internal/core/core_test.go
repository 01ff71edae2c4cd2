package core

import (
	"errors"
	"fmt"
	"testing"

	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
)

func mustMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

func m43(t *testing.T) *Machine {
	return mustMachine(t, Config{Shape: geom.MustShape(4, 3), StallThreshold: 64})
}

// TestNewMachineValidation covers what only construction can reject; the
// knob-compatibility rows of Config.Validate are driven through NewMachine
// by the one table in internal/jobs (TestKnobRejections).
func TestNewMachineValidation(t *testing.T) {
	if _, err := NewMachine(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewMachine(Config{Shape: geom.MustShape(4, 3), SXB: geom.Coord{0, 9}}); err == nil {
		t.Error("out-of-shape SXB accepted")
	}
}

func TestSimpleSendDelivers(t *testing.T) {
	m := m43(t)
	id, err := m.Send(geom.Coord{0, 0}, geom.Coord{3, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Run(10_000)
	if !out.Drained {
		t.Fatalf("outcome: %+v\n%s", out, out.Report.Describe())
	}
	ds := m.Deliveries()
	if len(ds) != 1 {
		t.Fatalf("deliveries = %d", len(ds))
	}
	d := ds[0]
	if d.PacketID != id || d.At != (geom.Coord{3, 2}) || d.Src != (geom.Coord{0, 0}) {
		t.Errorf("delivery = %+v", d)
	}
	if d.Broadcast || d.Detoured {
		t.Errorf("flags = %+v", d)
	}
	if d.Latency <= 0 || d.Latency > 100 {
		t.Errorf("latency = %d", d.Latency)
	}
	if m.Latency().Count() != 1 {
		t.Errorf("latency samples = %d", m.Latency().Count())
	}
}

// The dynamic route through the simulator must match the static path walker
// element for element.
func TestDynamicPathMatchesStatic(t *testing.T) {
	shape := geom.MustShape(4, 3)
	checkPair := func(m *Machine, src, dst geom.Coord) {
		t.Helper()
		want, err := m.Policy().UnicastPath(src, dst)
		if err != nil {
			t.Fatalf("%v->%v static: %v", src, dst, err)
		}
		var gotNames []string
		m.Engine().OnForward = func(from *engine.Node, out int, h *flit.Header, cycle int64) {
			gotNames = append(gotNames, from.Name)
		}
		if _, err := m.Send(src, dst, 2); err != nil {
			t.Fatalf("%v->%v send: %v", src, dst, err)
		}
		if out := m.Run(10_000); !out.Drained {
			t.Fatalf("%v->%v did not drain", src, dst)
		}
		m.Engine().OnForward = nil
		// Expected: the source PE, then every non-PE hop of the static path.
		wantNames := []string{"PE" + src.In(2)}
		for _, h := range want {
			switch h.Kind {
			case routing.HopRouter:
				wantNames = append(wantNames, "RTC"+h.Coord.In(2))
			case routing.HopXB:
				wantNames = append(wantNames, fmt.Sprintf("XB%d%s", h.Line.Dim, h.Line.Fixed.In(2)))
			}
		}
		if len(gotNames) != len(wantNames) {
			t.Fatalf("%v->%v: forwards %v, want %v", src, dst, gotNames, wantNames)
		}
		for i := range wantNames {
			if gotNames[i] != wantNames[i] {
				t.Fatalf("%v->%v: hop %d = %s, want %s", src, dst, i, gotNames[i], wantNames[i])
			}
		}
	}

	// Fault-free pairs.
	m := m43(t)
	checkPair(m, geom.Coord{0, 0}, geom.Coord{3, 2})
	checkPair(m, geom.Coord{2, 1}, geom.Coord{2, 1})
	checkPair(m, geom.Coord{1, 2}, geom.Coord{1, 0})

	// A detoured pair.
	m = mustMachine(t, Config{Shape: shape, StallThreshold: 64})
	if err := m.AddFault(fault.RouterFault(geom.Coord{2, 0})); err != nil {
		t.Fatal(err)
	}
	checkPair(m, geom.Coord{0, 0}, geom.Coord{2, 2})
}

func TestAllPairsSequential(t *testing.T) {
	m := m43(t)
	shape := m.Shape()
	total := 0
	shape.Enumerate(func(src geom.Coord) bool {
		shape.Enumerate(func(dst geom.Coord) bool {
			if _, err := m.Send(src, dst, 3); err != nil {
				t.Fatalf("%v->%v: %v", src, dst, err)
			}
			total++
			return true
		})
		return true
	})
	out := m.Run(200_000)
	if !out.Drained {
		t.Fatalf("outcome %+v\n%s", out, out.Report.Describe())
	}
	if len(m.Deliveries()) != total {
		t.Fatalf("delivered %d/%d", len(m.Deliveries()), total)
	}
	if m.Dropped() != 0 {
		t.Errorf("dropped %d", m.Dropped())
	}
}

// Paper §3.2 / Fig. 6: one broadcast reaches every PE exactly once, matching
// the static tree, and its copies are flagged as broadcast deliveries.
func TestBroadcastDeliversAllOnce(t *testing.T) {
	for _, shapeDims := range [][]int{{4, 3}, {3, 3, 2}} {
		m := mustMachine(t, Config{Shape: geom.MustShape(shapeDims...), StallThreshold: 64})
		src := m.Shape().CoordOf(m.Shape().Size() - 1)
		_, want, err := m.Broadcast(src, 4)
		if err != nil {
			t.Fatal(err)
		}
		if want != m.Shape().Size() {
			t.Fatalf("static tree covers %d, want %d", want, m.Shape().Size())
		}
		out := m.Run(50_000)
		if !out.Drained {
			t.Fatalf("shape %v: %+v\n%s", shapeDims, out, out.Report.Describe())
		}
		got := map[geom.Coord]int{}
		for _, d := range m.Deliveries() {
			if !d.Broadcast {
				t.Errorf("delivery not flagged broadcast: %+v", d)
			}
			if d.Src != src {
				t.Errorf("broadcast origin = %v", d.Src)
			}
			got[d.At]++
		}
		if len(got) != m.Shape().Size() {
			t.Fatalf("shape %v: broadcast reached %d PEs, want %d", shapeDims, len(got), m.Shape().Size())
		}
		for c, n := range got {
			if n != 1 {
				t.Errorf("PE %v received %d copies", c, n)
			}
		}
	}
}

// Paper §3.2: simultaneous broadcasts serialize at the S-XB and all complete.
func TestConcurrentBroadcastsSerialized(t *testing.T) {
	m := m43(t)
	srcs := []geom.Coord{{0, 0}, {3, 2}, {1, 1}, {2, 2}}
	for _, s := range srcs {
		if _, _, err := m.Broadcast(s, 6); err != nil {
			t.Fatal(err)
		}
	}
	out := m.Run(100_000)
	if !out.Drained {
		t.Fatalf("outcome %+v\n%s", out, out.Report.Describe())
	}
	perOrigin := map[geom.Coord]int{}
	for _, d := range m.Deliveries() {
		perOrigin[d.Src]++
	}
	for _, s := range srcs {
		if perOrigin[s] != m.Shape().Size() {
			t.Errorf("broadcast from %v delivered %d copies, want %d", s, perOrigin[s], m.Shape().Size())
		}
	}
}

// Paper Fig. 5: simultaneous naive broadcasts (no S-XB serialization)
// deadlock under cut-through routing.
func TestNaiveBroadcastDeadlockFig5(t *testing.T) {
	m := mustMachine(t, Config{Shape: geom.MustShape(4, 3), NaiveBroadcast: true, StallThreshold: 128})
	if _, _, err := m.Broadcast(geom.Coord{2, 0}, 8); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Broadcast(geom.Coord{1, 2}, 8); err != nil {
		t.Fatal(err)
	}
	out := m.Run(50_000)
	if !out.Stalled {
		t.Fatalf("naive broadcasts did not stall: %+v (delivered %d)", out, len(m.Deliveries()))
	}
	if !out.Deadlocked {
		t.Fatalf("stall not confirmed as deadlock:\n%s", out.Report.Describe())
	}
}

// The same two broadcasts complete under the S-XB scheme.
func TestSerializedBroadcastNoDeadlockFig5Counterpart(t *testing.T) {
	m := m43(t)
	if _, _, err := m.Broadcast(geom.Coord{2, 0}, 8); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Broadcast(geom.Coord{1, 2}, 8); err != nil {
		t.Fatal(err)
	}
	out := m.Run(50_000)
	if !out.Drained {
		t.Fatalf("outcome %+v\n%s", out, out.Report.Describe())
	}
	if len(m.Deliveries()) != 2*m.Shape().Size() {
		t.Errorf("delivered %d", len(m.Deliveries()))
	}
}

// Paper Figs. 7-8: the detour facility delivers around a faulty router, the
// delivery is flagged Detoured, and the packet "leaves no trace" (normal RC).
func TestDetourDeliveryFig8(t *testing.T) {
	m := mustMachine(t, Config{Shape: geom.MustShape(4, 3), StallThreshold: 64})
	if err := m.AddFault(fault.RouterFault(geom.Coord{2, 0})); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Send(geom.Coord{0, 0}, geom.Coord{2, 2}, 0); err != nil {
		t.Fatal(err)
	}
	out := m.Run(10_000)
	if !out.Drained {
		t.Fatalf("outcome %+v", out)
	}
	ds := m.Deliveries()
	if len(ds) != 1 || !ds[0].Detoured || ds[0].At != (geom.Coord{2, 2}) {
		t.Fatalf("deliveries = %+v", ds)
	}
	if m.Dropped() != 0 {
		t.Errorf("dropped = %d", m.Dropped())
	}
}

func TestSendToDeadPERefused(t *testing.T) {
	m := m43(t)
	bad := geom.Coord{1, 1}
	if err := m.AddFault(fault.RouterFault(bad)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Send(geom.Coord{0, 0}, bad, 0); !errors.Is(err, routing.ErrUnreachable) {
		t.Errorf("send to dead PE: %v", err)
	}
	// Unchecked send is dropped inside the network instead.
	if _, err := m.SendUnchecked(geom.Coord{0, 0}, bad, 0); err != nil {
		t.Fatal(err)
	}
	out := m.Run(10_000)
	if !out.Drained {
		t.Fatalf("outcome %+v", out)
	}
	if m.Dropped() != 1 || len(m.Deliveries()) != 0 {
		t.Errorf("dropped=%d delivered=%d", m.Dropped(), len(m.Deliveries()))
	}
	// A destination behind its faulty last-dimension crossbar is refused
	// the same way: the paper's facility leaves it unreachable.
	m = m43(t)
	if err := m.AddFault(fault.XBFault(geom.LineOf(geom.Coord{2, 0}, 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Send(geom.Coord{0, 0}, geom.Coord{2, 2}, 16); !errors.Is(err, routing.ErrUnreachable) {
		t.Errorf("send behind the faulty crossbar: %v, want ErrUnreachable", err)
	}
}

func TestSendUncheckedValidatesShape(t *testing.T) {
	m := m43(t)
	if _, err := m.SendUnchecked(geom.Coord{0, 0}, geom.Coord{9, 9}, 0); err == nil {
		t.Error("out-of-shape destination accepted")
	}
}

func TestAddFaultRequiresQuiescence(t *testing.T) {
	m := m43(t)
	if _, err := m.Send(geom.Coord{0, 0}, geom.Coord{3, 2}, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.AddFault(fault.RouterFault(geom.Coord{1, 1})); err == nil {
		t.Error("fault added to a loaded network")
	}
	m.Run(10_000)
	if err := m.AddFault(fault.RouterFault(geom.Coord{1, 1})); err != nil {
		t.Errorf("fault on quiescent network rejected: %v", err)
	}
}

func TestCrossbarFaultWithOwnCoordinateRefused(t *testing.T) {
	// Row 1's crossbar spelled with a point of the row, (2,1), rather than
	// LineOf's (0,1): the engine would fail row 1's crossbar while the
	// routing, which looks faults up by LineOf, sent (0,1) -> (3,1) into it
	// and dropped it. AddFault and FailNow refuse the spelling, and the
	// machine goes on delivering as before.
	bad := fault.XBFault(geom.Line{Dim: 0, Fixed: geom.Coord{2, 1}})
	for _, fail := range []struct {
		name string
		add  func(*Machine) error
	}{
		{"AddFault", func(m *Machine) error { return m.AddFault(bad) }},
		{"FailNow", func(m *Machine) error { _, err := m.FailNow(bad); return err }},
	} {
		m := mustMachine(t, Config{Shape: geom.MustShape(4, 4)})
		if err := fail.add(m); err == nil {
			t.Fatalf("%s accepted crossbar fault %v", fail.name, bad.Line)
		}
		if n := m.Faults().Count(); n != 0 {
			t.Fatalf("%s: %d faults recorded after the refusal", fail.name, n)
		}
		if _, err := m.Send(geom.Coord{0, 1}, geom.Coord{3, 1}, 4); err != nil {
			t.Fatal(err)
		}
		if out := m.Run(10_000); !out.Drained || m.Dropped() != 0 || len(m.Deliveries()) != 1 {
			t.Fatalf("%s: after the refusal, %d delivered and %d dropped: %+v", fail.name, len(m.Deliveries()), m.Dropped(), out)
		}
	}
}

func TestBroadcastWithFaultyRouterSkipsDeadPE(t *testing.T) {
	m := m43(t)
	bad := geom.Coord{3, 1}
	if err := m.AddFault(fault.RouterFault(bad)); err != nil {
		t.Fatal(err)
	}
	_, want, err := m.Broadcast(geom.Coord{0, 0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want != m.Shape().Size()-1 {
		t.Fatalf("static coverage = %d", want)
	}
	out := m.Run(50_000)
	if !out.Drained {
		t.Fatalf("outcome %+v\n%s", out, out.Report.Describe())
	}
	if len(m.Deliveries()) != want {
		t.Errorf("delivered %d, want %d", len(m.Deliveries()), want)
	}
	for _, d := range m.Deliveries() {
		if d.At == bad {
			t.Errorf("delivered to dead PE")
		}
	}
}

// A source whose request leg dies after its first hop cannot reach the S-XB:
// (1,2,2)'s leg rides the dim-1 crossbar toward the S line and would exit
// into the faulty router (1,0,2). Broadcast must refuse it rather than queue
// a packet the network can only drop.
func TestBroadcastRefusesDeadRequestLeg(t *testing.T) {
	m := mustMachine(t, Config{Shape: geom.MustShape(3, 3, 3), StallThreshold: 64})
	if err := m.AddFault(fault.RouterFault(geom.Coord{1, 0, 2})); err != nil {
		t.Fatal(err)
	}
	if _, n, err := m.Broadcast(geom.Coord{1, 2, 2}, 8); !errors.Is(err, routing.ErrUnreachable) {
		t.Fatalf("Broadcast = %d copies, err %v; want ErrUnreachable", n, err)
	}
	if out := m.Run(10_000); !out.Drained || m.Dropped() != 0 {
		t.Errorf("outcome %+v, %d dropped: a refused broadcast entered the network", out, m.Dropped())
	}
}

func TestResetStats(t *testing.T) {
	m := m43(t)
	if _, err := m.Send(geom.Coord{0, 0}, geom.Coord{1, 0}, 2); err != nil {
		t.Fatal(err)
	}
	m.Run(1_000)
	if len(m.Deliveries()) != 1 || m.Latency().Count() != 1 {
		t.Fatal("precondition failed")
	}
	m.ResetStats()
	if len(m.Deliveries()) != 0 || m.Latency().Count() != 0 || m.BroadcastLatency().Count() != 0 {
		t.Error("stats not cleared")
	}
	// A second window records afresh into the kept storage.
	if _, err := m.Send(geom.Coord{1, 0}, geom.Coord{3, 2}, 2); err != nil {
		t.Fatal(err)
	}
	m.Run(1_000)
	if ds := m.Deliveries(); len(ds) != 1 || ds[0].At != (geom.Coord{3, 2}) || m.Latency().Count() != 1 {
		t.Errorf("second window: deliveries %+v, %d latency samples", ds, m.Latency().Count())
	}
}

func TestMachineAccessors(t *testing.T) {
	m := m43(t)
	if m.Network() == nil || m.Engine() == nil || m.Policy() == nil || m.Faults() == nil {
		t.Fatal("nil accessor")
	}
	if m.Cycle() != 0 {
		t.Errorf("cycle = %d", m.Cycle())
	}
	m.Step()
	if m.Cycle() != 1 {
		t.Errorf("cycle after step = %d", m.Cycle())
	}
	r, x := m.Network().SwitchCount()
	if r != 12 || x != 3+4 {
		t.Errorf("switch count = %d routers, %d crossbars", r, x)
	}
	if m.Network().RouterPortPE() != 2 {
		t.Errorf("PE port = %d", m.Network().RouterPortPE())
	}
	if got := m.Network().PortCount(); got != 12*3+3*4+4*3 {
		t.Errorf("port count = %d", got)
	}
}

func TestFailNowPurgesAndReroutes(t *testing.T) {
	// Load the network, kill a router mid-run, and verify: casualties are
	// reported with headers, the engine invariants survive, the PE behind
	// the dead router becomes unreachable, and surviving traffic drains.
	m := mustMachine(t, Config{Shape: geom.MustShape(4, 4), StallThreshold: 128})
	shape := m.Shape()
	var accepted int
	shape.Enumerate(func(c geom.Coord) bool {
		dst := shape.CoordOf((shape.Index(c) + 5) % shape.Size())
		if dst == c {
			return true
		}
		if _, err := m.Send(c, dst, 0); err != nil {
			t.Fatalf("pre-fault send %v->%v: %v", c, dst, err)
		}
		accepted++
		return true
	})
	for i := 0; i < 10; i++ {
		m.Step()
	}
	dead := geom.Coord{2, 1}
	lost, err := m.FailNow(fault.RouterFault(dead))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Engine().CheckInvariants(); err != nil {
		t.Fatalf("invariants after FailNow: %v", err)
	}
	if len(lost) == 0 {
		t.Fatal("expected in-flight casualties at cycle 10")
	}
	for _, l := range lost {
		if !l.Known {
			t.Errorf("casualty %d without header", l.PacketID)
		}
	}
	if m.Alive(dead) {
		t.Error("PE behind dead router still alive")
	}
	if _, err := m.Send(geom.Coord{0, 0}, dead, 0); !errors.Is(err, routing.ErrUnreachable) {
		t.Errorf("send to dead router's PE: %v, want ErrUnreachable", err)
	}
	out := m.Run(20_000)
	if !out.Drained {
		t.Fatalf("post-fault network did not drain: %+v\n%s", out, out.Report.Describe())
	}
	// Every accepted packet was delivered, purged, or dropped at the dead
	// switch (routing sink).
	delivered := len(m.Deliveries())
	if int64(delivered)+m.Dropped() != int64(accepted) {
		t.Errorf("accounting: delivered=%d dropped=%d accepted=%d", delivered, m.Dropped(), accepted)
	}
	// Post-fault traffic between healthy PEs still works (detour if needed).
	m.ResetStats()
	if _, err := m.Send(geom.Coord{0, 1}, geom.Coord{3, 1}, 0); err != nil {
		t.Fatalf("post-fault send: %v", err)
	}
	if out := m.Run(20_000); !out.Drained {
		t.Fatal("post-fault send did not drain")
	}
	if len(m.Deliveries()) != 1 {
		t.Fatalf("post-fault deliveries = %d", len(m.Deliveries()))
	}
}

func TestFailNowValidates(t *testing.T) {
	m := m43(t)
	if _, err := m.FailNow(fault.RouterFault(geom.Coord{9, 9})); err == nil {
		t.Error("out-of-shape dynamic fault accepted")
	}
}
