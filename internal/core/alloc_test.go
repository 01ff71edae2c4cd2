//go:build !race

package core_test

// Allocation pins for the kernel hot path and the send path (the race
// detector instruments allocations, hence the build tag). The engine owns
// every packet header: Send copies its header into the engine's pool, a
// switch that rewrites or replicates a header forwards pooled copies, and a
// header goes back to the pool when its packet dies. So neither Send nor a
// Step allocates in steady state. What is known to remain is the broadcast
// path (ROADMAP item 10(c)): Broadcast builds its static tree per call, and
// every broadcast routing decision allocates its fan list; the windows below
// keep those decisions out. A pivot send also pays for the error value of
// the unicast refusal it is chosen on.

import (
	"slices"
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// pinMachine builds a machine with the given preset faults and warms it:
// one drained round of traffic sizes the route-state and header pools, the
// engine's scratch slices and the endpoints' source queues.
func pinMachine(t *testing.T, cfg core.Config, faults ...fault.Fault) *core.Machine {
	t.Helper()
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range faults {
		if err := m.AddFault(f); err != nil {
			t.Fatal(err)
		}
	}
	sendRound(t, m, 64)
	if out := m.Run(100_000); !out.Drained {
		t.Fatalf("warm-up round did not drain: %+v", out)
	}
	m.ResetStats()
	return m
}

// sendRound queues three packets of the given size at every live PE, to
// destinations spread over the machine (those the routing refuses are
// skipped: the faulty router's own PE, and pairs a single detour cannot
// serve).
func sendRound(t *testing.T, m *core.Machine, size int) {
	t.Helper()
	shape := m.Shape()
	n := shape.Size()
	for i := 0; i < n; i++ {
		for _, hop := range []int{9, 27, 38} {
			src, dst := shape.CoordOf(i), shape.CoordOf((i+hop)%n)
			if m.Reachable(src, dst) != nil {
				continue
			}
			if _, err := m.Send(src, dst, size); err != nil {
				t.Fatal(err)
			}
		}
	}
}

var mesh8x8 = core.Config{Shape: geom.MustShape(8, 8)}

func TestStepAllocatesNothing(t *testing.T) {
	// Steady state on a loaded fault-free machine: headers are routed, ports
	// arbitrated, flits moved, packets delivered — and nothing is allocated.
	m := pinMachine(t, mesh8x8)
	sendRound(t, m, 64)
	eng := m.Engine()
	eng.OnDeliver = nil // "no hooks": the machine's delivery log grows as it records
	for i := 0; i < 20; i++ {
		eng.Step()
	}
	if allocs := testing.AllocsPerRun(100, eng.Step); allocs != 0 {
		t.Errorf("Engine.Step on a loaded 8x8: %v allocations per cycle, want 0", allocs)
	}
	if eng.Quiescent() {
		t.Fatal("the machine drained before the measurement ended: it was not loaded throughout")
	}
}

func TestStepAllocatesNothingSlowLinks(t *testing.T) {
	// The same with three-cycle links: a flit in flight lands from one of
	// three arrival lists, each of which the warm-up round has sized.
	m := pinMachine(t, core.Config{Shape: geom.MustShape(8, 8), Engine: engine.Config{BufferDepth: 2, LinkDelay: 3}})
	sendRound(t, m, 64)
	eng := m.Engine()
	eng.OnDeliver = nil
	for i := 0; i < 20; i++ {
		eng.Step()
	}
	if allocs := testing.AllocsPerRun(100, eng.Step); allocs != 0 {
		t.Errorf("Engine.Step on a loaded 8x8 with LinkDelay 3: %v allocations per cycle, want 0", allocs)
	}
	if eng.Quiescent() {
		t.Fatal("the machine drained before the measurement ended: it was not loaded throughout")
	}
}

func TestStepAllocatesNothingWithDetoursInFlight(t *testing.T) {
	// The same with a faulty router, measured from the cycle the detoured
	// packets are sent: inside the window their headers are routed around
	// the fault and make their RC transitions (normal → detour, each counted
	// detour hop, detour → normal at the D-XB), every one forwarded as a
	// pooled copy, and the packets' flits stream along the detour.
	faulty := geom.Coord{3, 3}
	m := pinMachine(t, mesh8x8, fault.RouterFault(faulty))
	// Row 3 to column 3, the dimension-order turn at the faulty router.
	detoured := 0
	m.OnDeliver = func(d core.Delivery) {
		if d.Detoured {
			detoured++
		}
	}
	for x := 0; x < 8; x++ {
		if x == 3 {
			continue
		}
		if _, err := m.Send(geom.Coord{x, 3}, geom.Coord{3, 1 + x%2*4}, 600); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Send(geom.Coord{x, 5}, geom.Coord{(x + 2) % 8, 6}, 600); err != nil {
			t.Fatal(err)
		}
	}
	eng := m.Engine()
	hook := eng.OnDeliver
	eng.OnDeliver = nil
	detourHops := 0
	eng.OnForward = func(_ *engine.Node, _ int, h *flit.Header, _ int64) {
		if h.RC == flit.RCDetour {
			detourHops++
		}
	}
	if allocs := testing.AllocsPerRun(100, eng.Step); allocs != 0 {
		t.Errorf("Engine.Step with detours in flight: %v allocations per cycle, want 0", allocs)
	}
	if detourHops == 0 {
		t.Fatal("no header was forwarded in detour mode during the measurement")
	}
	if eng.Quiescent() {
		t.Fatal("the machine drained before the measurement ended")
	}
	eng.OnForward = nil
	eng.OnDeliver = hook
	if out := m.Run(100_000); !out.Drained {
		t.Fatalf("did not drain: %+v", out)
	}
	if detoured == 0 {
		t.Fatal("no delivered packet had detoured: the scenario does not exercise the detour path")
	}
}

func TestStepAllocatesNothingAdaptive(t *testing.T) {
	// Escape-VC adaptive routing on 4x4x4 with 4 lanes and a faulty router:
	// every hop on an adaptive lane rewrites the header (AdaptiveHops), and
	// decisions are re-made every cycle a packet loses its lane. A long S-XB
	// broadcast is started first; once its header has reached every PE (its
	// fan decisions, which allocate their output lists, are then made), the
	// window opens on its flits replicating through the whole tree beside
	// freshly sent unicast traffic.
	m := pinMachine(t, core.Config{Shape: geom.MustShape(4, 4, 4), VCs: 4, Adaptive: true},
		fault.RouterFault(geom.Coord{1, 2, 1}))
	eng := m.Engine()
	// A drained rehearsal gives the lanes the broadcast and the adaptive hops
	// take their rings, and the pools their size.
	src := geom.Coord{3, 3, 3}
	if _, _, err := m.Broadcast(src, 400); err != nil {
		t.Fatal(err)
	}
	sendRound(t, m, 16)
	if out := m.Run(100_000); !out.Drained {
		t.Fatalf("rehearsal did not drain: %+v", out)
	}
	bid, copies, err := m.Broadcast(src, 400)
	if err != nil {
		t.Fatal(err)
	}
	reached := 0
	eng.OnForward = func(from *engine.Node, out int, h *flit.Header, _ int64) {
		if h.PacketID == bid && from.Out[out].DownstreamIn().Node().Kind == engine.KindEndpoint {
			reached++
		}
	}
	for start := eng.Cycle(); reached < copies; {
		if eng.Cycle()-start > 1000 {
			t.Fatalf("the broadcast header reached %d of %d PEs in 1000 cycles", reached, copies)
		}
		eng.Step()
	}
	sendRound(t, m, 16)
	eng.OnDeliver = nil
	adaptiveHops := 0
	eng.OnForward = func(_ *engine.Node, _ int, h *flit.Header, _ int64) {
		if h.AdaptiveHops > 0 {
			adaptiveHops++
		}
	}
	if allocs := testing.AllocsPerRun(100, eng.Step); allocs != 0 {
		t.Errorf("Engine.Step with adaptive hops and a broadcast in flight: %v allocations per cycle, want 0", allocs)
	}
	if adaptiveHops == 0 {
		t.Fatal("no header was forwarded after an adaptive hop during the measurement")
	}
	hdrs, _ := eng.InFlightHeaders()
	if !slices.ContainsFunc(hdrs, func(h *flit.Header) bool { return h.PacketID == bid }) {
		t.Fatal("the broadcast finished before the measurement ended")
	}
}

func TestSendAllocatesNothing(t *testing.T) {
	// Send's reachability precheck replays the routing decisions without
	// collecting a path or allocating a probe header, detour or not, and the
	// header it queues comes from the engine's pool.
	faulty := geom.Coord{3, 3}
	for _, tc := range []struct {
		name   string
		faults []fault.Fault
	}{{"fault-free", nil}, {"faulted", []fault.Fault{fault.RouterFault(faulty)}}} {
		t.Run(tc.name, func(t *testing.T) {
			m := pinMachine(t, mesh8x8, tc.faults...)
			i := 0
			send := func() {
				// Row 3 to column 3 turns at (3,3): detoured when it is faulty.
				x := []int{0, 1, 2, 4, 5, 6, 7}[i%7]
				i++
				if _, err := m.Send(geom.Coord{x, 3}, geom.Coord{3, 1 + x%2*4}, 1); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(14, send); allocs != 0 {
				t.Errorf("Machine.Send: %v allocations per packet, want 0", allocs)
			}
			if err := m.Reachable(geom.Coord{0, 3}, geom.Coord{3, 7}); err != nil {
				t.Fatal(err)
			}
			reach := func() { _ = m.Reachable(geom.Coord{0, 3}, geom.Coord{3, 7}) }
			if allocs := testing.AllocsPerRun(50, reach); allocs != 0 {
				t.Errorf("Machine.Reachable on a served pair: %v allocations, want 0", allocs)
			}
		})
	}
	t.Run("pivot", func(t *testing.T) {
		// Column 5's crossbar is faulty, so row 3 reaches it only by pivot:
		// the unicast precheck refuses, and the two-phase route is checked
		// without being collected. The refusal's error value is the one
		// allocation left.
		m := pinMachine(t, core.Config{Shape: geom.MustShape(8, 8), PivotLastDim: true},
			fault.XBFault(geom.LineOf(geom.Coord{5, 0}, 1)))
		pair := func(i int) (geom.Coord, geom.Coord) {
			x := []int{0, 1, 2, 3, 4, 6, 7}[i%7]
			return geom.Coord{x, 3}, geom.Coord{5, 1 + x%2*4}
		}
		for i := 0; i < 7; i++ {
			src, dst := pair(i)
			if _, err := m.Policy().PivotPath(src, dst); m.Reachable(src, dst) == nil || err != nil {
				t.Fatalf("%v -> %v is not a pivot pair", src, dst)
			}
		}
		i := 0
		refuse := func() {
			src, dst := pair(i)
			i++
			_ = m.Reachable(src, dst)
		}
		refusal := testing.AllocsPerRun(14, refuse)
		send := func() {
			src, dst := pair(i)
			i++
			if _, err := m.Send(src, dst, 1); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(14, send); allocs > refusal {
			t.Errorf("Machine.Send of a pivot packet: %v allocations, want no more than the %v of the unicast refusal", allocs, refusal)
		}
	})
}
