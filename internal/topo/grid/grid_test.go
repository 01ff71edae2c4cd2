package grid_test

import (
	"strings"
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/topo"
	"sr2201/internal/traffic"
)

// The three families run on core.Machine like every other topology; these
// tests drive them through it.
func mustMachine(t *testing.T, topology string, shape geom.Shape) *core.Machine {
	t.Helper()
	m, err := core.NewMachine(core.Config{Topology: topology, Shape: shape, StallThreshold: 128})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mustScheme builds the family's routing scheme for a fault-free shape
// through its registration, as core.Machine does.
func mustScheme(t *testing.T, topology string, shape geom.Shape) topo.Router {
	t.Helper()
	reg, ok := topo.Lookup(topology)
	if !ok || reg.New == nil {
		t.Fatalf("%s: no direct-link registration", topology)
	}
	s, err := reg.New(shape, fault.NewSet(shape))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sendAllPairs queues one size-flit packet for every ordered pair and
// returns how many.
func sendAllPairs(t *testing.T, m *core.Machine, size int) int {
	t.Helper()
	shape, count := m.Shape(), 0
	shape.Enumerate(func(src geom.Coord) bool {
		shape.Enumerate(func(dst geom.Coord) bool {
			if src == dst {
				return true
			}
			if _, err := m.Send(src, dst, size); err != nil {
				t.Fatal(err)
			}
			count++
			return true
		})
		return true
	})
	return count
}

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		topology string
		shape    geom.Shape
		want     string // "" = accepted
	}{
		{"mesh", geom.MustShape(4), "2-dimensional"},
		{"torus", geom.MustShape(4, 4, 4), "2-dimensional"},
		{"torus", geom.MustShape(2, 4), "at least 3"},
		{"torus-novc", geom.MustShape(4, 2), "at least 3"},
		{"mesh", geom.MustShape(2, 2), ""},
		{"torus", geom.MustShape(3, 3), ""},
	} {
		_, err := core.NewMachine(core.Config{Topology: tc.topology, Shape: tc.shape})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s %s rejected: %v", tc.topology, tc.shape, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s %s: err=%v, want mention of %q", tc.topology, tc.shape, err, tc.want)
		}
	}
}

// TestFamilyNames: the three families are topology names core accepts, and
// an instance is named family-shape.
func TestFamilyNames(t *testing.T) {
	for _, name := range []string{"mesh", "torus", "torus-novc"} {
		shape := geom.MustShape(3, 4)
		m := mustMachine(t, name, shape)
		if s := mustScheme(t, name, shape); m.Topology() != name || s.Name() != name+"-3x4" {
			t.Errorf("%s: topology %q, scheme %q", name, m.Topology(), s.Name())
		}
	}
}

func TestMeshAllPairs(t *testing.T) {
	m := mustMachine(t, "mesh", geom.MustShape(4, 4))
	count := sendAllPairs(t, m, 3)
	out := m.Run(200_000)
	if !out.Drained {
		t.Fatalf("outcome %+v\n%s", out, out.Report.Describe())
	}
	if len(m.Deliveries()) != count {
		t.Fatalf("delivered %d/%d", len(m.Deliveries()), count)
	}
	for _, d := range m.Deliveries() {
		if d.Latency <= 0 {
			t.Errorf("latency %d", d.Latency)
		}
	}
}

func TestTorusAllPairs(t *testing.T) {
	m := mustMachine(t, "torus", geom.MustShape(4, 4))
	count := sendAllPairs(t, m, 3)
	out := m.Run(500_000)
	if !out.Drained {
		t.Fatalf("outcome %+v\n%s", out, out.Report.Describe())
	}
	if len(m.Deliveries()) != count {
		t.Fatalf("delivered %d/%d", len(m.Deliveries()), count)
	}
}

// Minimal torus routing must beat the mesh on wrap pairs: corner to corner
// on a 5x5 is 8 mesh hops but only 2 torus hops.
func TestTorusUsesWraparound(t *testing.T) {
	route := func(topology string) (hops int, latency int64) {
		m := mustMachine(t, topology, geom.MustShape(5, 5))
		w, err := topo.Walk(mustScheme(t, topology, m.Shape()), geom.Coord{0, 0}, geom.Coord{4, 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Send(geom.Coord{0, 0}, geom.Coord{4, 4}, 1); err != nil {
			t.Fatal(err)
		}
		if out := m.Run(10_000); !out.Drained {
			t.Fatalf("%s did not drain", topology)
		}
		return len(w.Routers) - 1, m.Deliveries()[0].Latency
	}
	meshHops, meshLat := route("mesh")
	torusHops, torusLat := route("torus")
	if meshHops != 8 || torusHops != 2 {
		t.Errorf("corner to corner: mesh %d hops, torus %d, want 8 and 2", meshHops, torusHops)
	}
	if torusLat >= meshLat {
		t.Errorf("torus latency %d not below mesh %d", torusLat, meshLat)
	}
}

// The dateline virtual channels keep the torus deadlock-free under traffic
// that saturates the rings; the same traffic wedges the no-VC torus.
func TestTorusVCPreventsDeadlock(t *testing.T) {
	load := func(topology string) (drained, deadlocked bool) {
		m := mustMachine(t, topology, geom.MustShape(4, 4))
		// All-to-all ring pressure: every PE sends a long packet halfway
		// around its row, all simultaneously, then the same down columns.
		m.Shape().Enumerate(func(src geom.Coord) bool {
			for _, dst := range []geom.Coord{{(src[0] + 2) % 4, src[1]}, {src[0], (src[1] + 2) % 4}} {
				if _, err := m.Send(src, dst, 24); err != nil {
					t.Fatal(err)
				}
			}
			return true
		})
		out := m.Run(500_000)
		return out.Drained, out.Deadlocked
	}
	if drained, deadlocked := load("torus"); !drained || deadlocked {
		t.Errorf("VC torus: drained=%v deadlocked=%v", drained, deadlocked)
	}
	if drained, deadlocked := load("torus-novc"); drained || !deadlocked {
		t.Errorf("no-VC torus: drained=%v deadlocked=%v (want deadlock)", drained, deadlocked)
	}
}

// TestCertificateMeetsSimulator ties the static and the dynamic halves
// together on every direct-link family core can host: a canonical instance
// that certifies acyclic drains a uniform stress load, and the one the
// prover refutes deadlocks under it.
func TestCertificateMeetsSimulator(t *testing.T) {
	for _, reg := range topo.Registered() {
		if reg.New == nil {
			continue
		}
		t.Run(reg.Name, func(t *testing.T) {
			s, err := reg.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			cert, err := topo.Certify(s)
			if err != nil {
				t.Fatal(err)
			}
			if cert.Acyclic == reg.Refuted {
				t.Fatalf("certificate acyclic=%v on a family registered refuted=%v", cert.Acyclic, reg.Refuted)
			}
			m := mustMachine(t, reg.Name, s.(topo.Router).Shape())
			res := (&traffic.Driver{
				M: m, Pattern: traffic.Uniform{Shape: m.Shape()},
				Rate: 0.3, Size: 8, Seed: 7, Warmup: 100, Measure: 400, Drain: 200_000,
			}).Run()
			if res.Deadlocked != !cert.Acyclic || res.Drained != cert.Acyclic {
				t.Errorf("acyclic=%v but drained=%v deadlocked=%v", cert.Acyclic, res.Drained, res.Deadlocked)
			}
		})
	}
}

func TestBroadcastUnsupported(t *testing.T) {
	m := mustMachine(t, "mesh", geom.MustShape(3, 3))
	if _, _, err := m.Broadcast(geom.Coord{0, 0}, 4); err == nil {
		t.Error("mesh broadcast accepted")
	}
	if m.BroadcastLatency().Count() != 0 {
		t.Error("non-empty broadcast latency")
	}
}

func TestSendValidation(t *testing.T) {
	m := mustMachine(t, "mesh", geom.MustShape(3, 3))
	if _, err := m.Send(geom.Coord{0, 0}, geom.Coord{5, 5}, 1); err == nil {
		t.Error("out-of-shape send accepted")
	}
	if !m.Alive(geom.Coord{1, 1}) {
		t.Error("baseline PE not alive")
	}
}

// TestFaultsRefused: the baselines model no faults, and say so by name
// before anything changes — static or dynamic, any kind.
func TestFaultsRefused(t *testing.T) {
	for _, topology := range []string{"mesh", "torus", "torus-novc"} {
		m := mustMachine(t, topology, geom.MustShape(4, 4))
		for _, f := range []fault.Fault{
			fault.RouterFault(geom.Coord{1, 1}),
			fault.LinkFault(geom.Coord{0, 0}, geom.Coord{1, 0}),
			fault.XBFault(geom.LineOf(geom.Coord{0, 1}, 0)),
		} {
			if err := m.AddFault(f); err == nil || !strings.Contains(err.Error(), `"`+topology+`"`) {
				t.Errorf("%s AddFault(%s): err=%v, want a refusal naming the topology", topology, f, err)
			}
			if _, err := m.FailNow(f); err == nil || !strings.Contains(err.Error(), `"`+topology+`"`) {
				t.Errorf("%s FailNow(%s): err=%v, want a refusal naming the topology", topology, f, err)
			}
		}
		if m.Faults().Count() != 0 || !m.Alive(geom.Coord{1, 1}) {
			t.Errorf("%s: a refused fault changed the fault set", topology)
		}
	}
}

func TestDriverOnMesh(t *testing.T) {
	m := mustMachine(t, "mesh", geom.MustShape(4, 4))
	d := traffic.Driver{
		M:       m,
		Pattern: traffic.Uniform{Shape: m.Shape()},
		Rate:    0.02,
		Size:    4,
		Seed:    11,
		Warmup:  200,
		Measure: 1000,
	}
	res := d.Run()
	if res.Delivered == 0 || !res.Drained || res.Deadlocked {
		t.Fatalf("result %+v", res)
	}
}

func TestResetStatsAndAccessors(t *testing.T) {
	m := mustMachine(t, "mesh", geom.MustShape(3, 3))
	if _, err := m.Send(geom.Coord{0, 0}, geom.Coord{2, 2}, 2); err != nil {
		t.Fatal(err)
	}
	m.Run(10_000)
	if m.Latency().Count() != 1 {
		t.Fatal("precondition")
	}
	m.ResetStats()
	if m.Latency().Count() != 0 || len(m.Deliveries()) != 0 {
		t.Error("stats not reset")
	}
	if m.Topology() != "mesh" || m.Engine() == nil || m.Network() == nil || m.Policy() != nil {
		t.Error("accessors wrong")
	}
	if m.Network().Router(geom.Coord{1, 2}).Name != "R(1,2)" || m.Network().PE(geom.Coord{1, 2}).Name != "PE(1,2)" {
		t.Error("node lookup failed")
	}
	if r, x := m.Network().SwitchCount(); r != 9 || x != 0 {
		t.Errorf("switch count = %d routers, %d crossbars", r, x)
	}
}

// TestTorusPhysicalChannelSharing: the two dateline lanes of a direction are
// one wire. A packet that wrapped rides lane 1 out of (0,0) eastward while a
// packet born there rides lane 0 of the same wire; both lanes carry flits,
// and never more than one flit between them in a cycle.
func TestTorusPhysicalChannelSharing(t *testing.T) {
	m := mustMachine(t, "torus", geom.MustShape(4, 4))
	if _, err := m.Send(geom.Coord{3, 0}, geom.Coord{1, 0}, 16); err != nil { // wraps at (3,0): lane 1 from there on
		t.Fatal(err)
	}
	if _, err := m.Send(geom.Coord{0, 0}, geom.Coord{1, 0}, 16); err != nil { // lane 0
		t.Fatal(err)
	}
	east := m.Network().Router(geom.Coord{0, 0}).Out[:2]
	sent := func() int64 { return east[0].BusyCycles() + east[1].BusyCycles() }
	for !m.Engine().Quiescent() && m.Cycle() < 10_000 {
		before := sent()
		m.Step()
		if got := sent() - before; got > 1 {
			t.Fatalf("cycle %d: %d flits crossed the two lanes of one wire", m.Cycle(), got)
		}
	}
	if east[0].BusyCycles() != 16 || east[1].BusyCycles() != 16 {
		t.Errorf("lane flits %d and %d, want 16 each", east[0].BusyCycles(), east[1].BusyCycles())
	}
	if len(m.Deliveries()) != 2 {
		t.Errorf("delivered %d", len(m.Deliveries()))
	}
}

func TestMeshDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		m, err := core.NewMachine(core.Config{Topology: "mesh", Shape: geom.MustShape(4, 4), Engine: engine.Config{BufferDepth: 1}})
		if err != nil {
			t.Fatal(err)
		}
		m.Shape().Enumerate(func(src geom.Coord) bool {
			if _, err := m.Send(src, geom.Coord{3 - src[0], 3 - src[1]}, 6); err != nil {
				t.Fatal(err)
			}
			return true
		})
		m.Run(100_000)
		return m.Engine().Cycle(), m.Engine().Moves()
	}
	c1, m1 := run()
	c2, m2 := run()
	if c1 != c2 || m1 != m2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", c1, m1, c2, m2)
	}
}
