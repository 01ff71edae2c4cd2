package deadlock

import (
	"fmt"
	"strings"
	"testing"

	"sr2201/internal/engine"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// buildRing replicates the engine test topology: a k-switch unidirectional
// ring, one endpoint per switch, ports 0=EP 1=from-prev 2=to-next.
func buildRing(e *engine.Engine, k int) []*engine.Node {
	route := func(n *engine.Node, in int, h *flit.Header) (engine.Decision, error) {
		if h.Dst[0] == n.Meta.(int) {
			return engine.Decision{Outs: []int{0}}, nil
		}
		return engine.Decision{Outs: []int{2}}, nil
	}
	var eps, sws []*engine.Node
	for i := 0; i < k; i++ {
		eps = append(eps, e.AddEndpoint(fmt.Sprintf("E%d", i), i))
		sws = append(sws, e.AddSwitch(fmt.Sprintf("S%d", i), 3, route, i))
		e.Connect(eps[i], 0, sws[i], 0)
	}
	for i := 0; i < k; i++ {
		e.ConnectDirected(sws[i], 2, sws[(i+1)%k], 1)
	}
	return eps
}

func pkt(id uint64, dst int) flit.Header {
	return flit.Header{PacketID: id, Dst: geom.Coord{dst}}
}

func TestRunDetectsDrain(t *testing.T) {
	e := engine.New(engine.DefaultConfig())
	eps := buildRing(e, 4)
	e.InjectPacket(eps[0], pkt(1, 2), 8)
	out := Run(e, 10000, 64)
	if !out.Drained || out.Deadlocked || out.Stalled {
		t.Errorf("outcome = %+v", out)
	}
}

func TestRunDetectsRingDeadlock(t *testing.T) {
	e := engine.New(engine.Config{BufferDepth: 1})
	eps := buildRing(e, 4)
	for i := 0; i < 4; i++ {
		e.InjectPacket(eps[i], pkt(uint64(i+1), (i+2)%4), 16)
	}
	out := Run(e, 10000, 64)
	if !out.Stalled {
		t.Fatal("watchdog did not fire")
	}
	if !out.Deadlocked {
		t.Fatalf("wait cycle not confirmed:\n%s", out.Report.Describe())
	}
	if len(out.Report.Cycle) < 2 {
		t.Errorf("cycle length %d", len(out.Report.Cycle))
	}
	desc := out.Report.Describe()
	if !strings.Contains(desc, "DEADLOCK") {
		t.Errorf("Describe = %q", desc)
	}
}

func TestWatchdogResetsOnProgress(t *testing.T) {
	e := engine.New(engine.DefaultConfig())
	eps := buildRing(e, 4)
	w := NewWatchdog(e, 8)
	// Trickle packets: progress is intermittent but real; the watchdog must
	// never fire.
	for i := 0; i < 200; i++ {
		if i%40 == 0 {
			e.InjectPacket(eps[i/40%4], pkt(uint64(i), (i/40+2)%4), 4)
		}
		e.Step()
		if w.Stalled() && e.Resident() > 0 {
			// Only a genuine >8-cycle pause with resident flits may fire; an
			// 8-cycle threshold with 4-flit packets across 2 hops should not.
			t.Fatalf("watchdog fired spuriously at cycle %d", e.Cycle())
		}
	}
}

func TestWatchdogQuietWhenEmpty(t *testing.T) {
	e := engine.New(engine.DefaultConfig())
	buildRing(e, 3)
	w := NewWatchdog(e, 4)
	for i := 0; i < 100; i++ {
		e.Step()
		if w.Stalled() {
			t.Fatal("watchdog fired on an empty network")
		}
	}
}

func TestAnalyzeCleanNetwork(t *testing.T) {
	e := engine.New(engine.DefaultConfig())
	buildRing(e, 3)
	rep := Analyze(e)
	if rep.Deadlocked || len(rep.Edges) != 0 {
		t.Errorf("report = %+v", rep)
	}
	if !strings.Contains(rep.Describe(), "no wait cycle") {
		t.Errorf("Describe = %q", rep.Describe())
	}
}

func TestStarvationIsNotDeadlock(t *testing.T) {
	// A packet blocked behind a long stream is stalled but not deadlocked:
	// the graph is a chain, not a cycle. We freeze the picture by stopping
	// injection mid-stream: S0 holds the ring link while its source queue
	// starves (endpoint has nothing more to send... instead we emulate with
	// a packet longer than the run). Analyze must find edges but no cycle.
	e := engine.New(engine.Config{BufferDepth: 1})
	eps := buildRing(e, 4)
	// One very long packet 0->2 and a short one 1->3 that must wait for the
	// shared link S1->S2.
	e.InjectPacket(eps[0], pkt(1, 2), 400)
	e.InjectPacket(eps[1], pkt(2, 3), 4)
	for i := 0; i < 40; i++ {
		e.Step()
	}
	rep := Analyze(e)
	if rep.Deadlocked {
		t.Fatalf("chain misreported as deadlock:\n%s", rep.Describe())
	}
	if len(rep.Edges) == 0 {
		t.Error("expected wait edges for the blocked short packet")
	}
	// And the network still drains.
	out := Run(e, 10000, 0)
	if !out.Drained {
		t.Errorf("network did not drain: %+v", out)
	}
}

func TestRunMaxCyclesExceeded(t *testing.T) {
	// A network that is making progress but slower than the budget: Run must
	// return neither drained nor stalled.
	e := engine.New(engine.Config{BufferDepth: 1})
	eps := buildRing(e, 4)
	e.InjectPacket(eps[0], pkt(1, 2), 5000)
	out := Run(e, 50, 0)
	if out.Drained || out.Stalled {
		t.Errorf("outcome = %+v", out)
	}
	if out.Cycle != 50 {
		t.Errorf("cycle = %d", out.Cycle)
	}
}
