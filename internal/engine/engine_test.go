package engine

import (
	"fmt"
	"testing"

	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// passThrough routes every packet straight across a two-port switch.
func passThrough(n *Node, in int, h *flit.Header) (Decision, error) {
	return Decision{Outs: []int{1 - in}}, nil
}

// destPort routes by Dst coordinate 0, interpreted as an output port number.
func destPort(n *Node, in int, h *flit.Header) (Decision, error) {
	return Decision{Outs: []int{h.Dst[0]}}, nil
}

func mkPacket(id uint64, dst geom.Coord, size int) []*flit.Flit {
	return flit.NewPacket(&flit.Header{PacketID: id, Dst: dst}, size)
}

// line builds EP(a) <-> SW <-> EP(b) and returns all three.
func line(e *Engine) (a, sw, b *Node) {
	a = e.AddEndpoint("A", nil)
	b = e.AddEndpoint("B", nil)
	sw = e.AddSwitch("SW", 2, passThrough, nil)
	e.Connect(a, 0, sw, 0)
	e.Connect(b, 0, sw, 1)
	return a, sw, b
}

func TestSinglePacketDelivery(t *testing.T) {
	e := New(DefaultConfig())
	a, _, b := line(e)
	var at []*Node
	var ids []uint64
	e.OnDeliver = func(d Delivery) { at, ids = append(at, d.At), append(ids, d.Header.PacketID) }

	e.Inject(a, mkPacket(1, geom.Coord{}, 4))
	if !e.RunUntilQuiescent(100) {
		t.Fatal("network did not drain")
	}
	if len(ids) != 1 {
		t.Fatalf("got %d deliveries", len(ids))
	}
	if at[0] != b || ids[0] != 1 {
		t.Errorf("delivered pkt%d at %s", ids[0], at[0].Name)
	}
	if a.Sent != 1 || b.Received != 1 {
		t.Errorf("sent=%d received=%d", a.Sent, b.Received)
	}
	if e.Dropped() != 0 {
		t.Errorf("dropped=%d", e.Dropped())
	}
}

func TestLatencyPipelining(t *testing.T) {
	// One hop through a switch: header injected at cycle 0 should arrive at
	// the far endpoint after the inject+link+switch+link pipeline; with
	// single-cycle links a k-flit packet completes in ~k+3 cycles.
	e := New(Config{BufferDepth: 8, LinkDelay: 1})
	a, _, b := line(e)
	var deliveredAt int64 = -1
	e.OnDeliver = func(d Delivery) { deliveredAt = d.Cycle }
	e.Inject(a, mkPacket(1, geom.Coord{}, 4))
	e.RunUntilQuiescent(100)
	if deliveredAt < 4 || deliveredAt > 10 {
		t.Errorf("4-flit packet delivered at cycle %d, want in [4,10]", deliveredAt)
	}
	_ = b
}

func TestMultiplePacketsInOrder(t *testing.T) {
	e := New(DefaultConfig())
	a, _, _ := line(e)
	var ids []uint64
	e.OnDeliver = func(d Delivery) { ids = append(ids, d.Header.PacketID) }
	for i := 1; i <= 5; i++ {
		e.Inject(a, mkPacket(uint64(i), geom.Coord{}, 3))
	}
	if !e.RunUntilQuiescent(500) {
		t.Fatal("did not drain")
	}
	if len(ids) != 5 {
		t.Fatalf("got %d deliveries", len(ids))
	}
	for i, id := range ids {
		if id != uint64(i+1) {
			t.Errorf("delivery %d has id %d; FIFO order violated", i, id)
		}
	}
}

func TestBackpressureNeverOverflows(t *testing.T) {
	// Tiny buffers, many packets: the credit system must keep buffers legal
	// (deliverLinks panics on overflow).
	e := New(Config{BufferDepth: 1, LinkDelay: 1})
	a, _, _ := line(e)
	done := 0
	e.OnDeliver = func(Delivery) { done++ }
	for i := 0; i < 20; i++ {
		e.Inject(a, mkPacket(uint64(i), geom.Coord{}, 6))
	}
	if !e.RunUntilQuiescent(5000) {
		t.Fatal("did not drain")
	}
	if done != 20 {
		t.Errorf("delivered %d/20", done)
	}
}

func TestFanOutReplication(t *testing.T) {
	// EP0 -> SW(3 ports) -> EP1, EP2. Routing fans out to both.
	e := New(DefaultConfig())
	e0 := e.AddEndpoint("E0", nil)
	e1 := e.AddEndpoint("E1", nil)
	e2 := e.AddEndpoint("E2", nil)
	fan := func(n *Node, in int, h *flit.Header) (Decision, error) {
		return Decision{Outs: []int{1, 2}}, nil
	}
	sw := e.AddSwitch("SW", 3, fan, nil)
	e.Connect(e0, 0, sw, 0)
	e.Connect(e1, 0, sw, 1)
	e.Connect(e2, 0, sw, 2)

	recv := map[string]int{}
	e.OnDeliver = func(d Delivery) { recv[d.At.Name]++ }
	e.Inject(e0, mkPacket(7, geom.Coord{}, 5))
	if !e.RunUntilQuiescent(200) {
		t.Fatal("did not drain")
	}
	if recv["E1"] != 1 || recv["E2"] != 1 {
		t.Errorf("receipts = %v", recv)
	}
}

func TestFanOutHeaderTransformIsolated(t *testing.T) {
	// A rewrite on a fan-out must apply to each branch's own copy exactly
	// once, and never to the caller's header: the rewrite counts, so two
	// branches sharing one header would deliver a count of 2.
	e := New(DefaultConfig())
	e0 := e.AddEndpoint("E0", nil)
	e1 := e.AddEndpoint("E1", nil)
	e2 := e.AddEndpoint("E2", nil)
	fan := func(n *Node, in int, h *flit.Header) (Decision, error) {
		return Decision{Outs: []int{1, 2}, Rewrite: flit.SetRC(flit.RCBroadcast) | flit.CountDetour}, nil
	}
	sw := e.AddSwitch("SW", 3, fan, nil)
	e.Connect(e0, 0, sw, 0)
	e.Connect(e1, 0, sw, 1)
	e.Connect(e2, 0, sw, 2)
	var headers []flit.Header
	e.OnDeliver = func(d Delivery) { headers = append(headers, *d.Header) }
	orig := &flit.Header{PacketID: 9}
	e.Step() // so that an injection stamp on the caller's header would show
	e.Inject(e0, flit.NewPacket(orig, 1))
	e.RunUntilQuiescent(100)
	if len(headers) != 2 {
		t.Fatalf("got %d deliveries", len(headers))
	}
	for _, h := range headers {
		if h.PacketID != 9 || h.RC != flit.RCBroadcast || h.DetourHops != 1 {
			t.Errorf("branch header %+v, want pkt9 rewritten once", h)
		}
	}
	if *orig != (flit.Header{PacketID: 9, Size: 1}) {
		t.Errorf("the caller's header changed: %+v", *orig)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestContentionSerializesAndCounts(t *testing.T) {
	// Two senders to one receiver through a 3-port switch: deliveries must
	// serialize and the shared output must record a conflict.
	e := New(DefaultConfig())
	s0 := e.AddEndpoint("S0", nil)
	s1 := e.AddEndpoint("S1", nil)
	r := e.AddEndpoint("R", nil)
	toTwo := func(n *Node, in int, h *flit.Header) (Decision, error) {
		return Decision{Outs: []int{2}}, nil
	}
	sw := e.AddSwitch("SW", 3, toTwo, nil)
	e.Connect(s0, 0, sw, 0)
	e.Connect(s1, 0, sw, 1)
	e.Connect(r, 0, sw, 2)
	got := 0
	e.OnDeliver = func(Delivery) { got++ }
	e.Inject(s0, mkPacket(1, geom.Coord{}, 6))
	e.Inject(s1, mkPacket(2, geom.Coord{}, 6))
	if !e.RunUntilQuiescent(500) {
		t.Fatal("did not drain")
	}
	if got != 2 {
		t.Errorf("delivered %d", got)
	}
	if sw.Out[2].ConflictCycles == 0 {
		t.Error("no conflict recorded on contended output")
	}
}

// buildRing makes a k-switch unidirectional ring with one endpoint per
// switch. Switch ports: 0=endpoint, 1=from previous, 2=to next. Dst[0] is the
// destination ring index.
func buildRing(e *Engine, k int) (eps, sws []*Node) {
	route := func(n *Node, in int, h *flit.Header) (Decision, error) {
		self := n.Meta.(int)
		if h.Dst[0] == self {
			return Decision{Outs: []int{0}}, nil
		}
		return Decision{Outs: []int{2}}, nil
	}
	for i := 0; i < k; i++ {
		eps = append(eps, e.AddEndpoint(fmt.Sprintf("E%d", i), i))
		sws = append(sws, e.AddSwitch(fmt.Sprintf("S%d", i), 3, route, i))
		e.Connect(eps[i], 0, sws[i], 0)
	}
	for i := 0; i < k; i++ {
		e.ConnectDirected(sws[i], 2, sws[(i+1)%k], 1)
		// Unused reverse direction so ports are "connected" symmetrically:
		// not needed; ring uses directed links only.
	}
	return eps, sws
}

func TestRingDeliversWithoutFullLoad(t *testing.T) {
	e := New(DefaultConfig())
	eps, _ := buildRing(e, 4)
	got := 0
	e.OnDeliver = func(Delivery) { got++ }
	e.Inject(eps[0], mkPacket(1, geom.Coord{2}, 8))
	if !e.RunUntilQuiescent(500) {
		t.Fatal("did not drain")
	}
	if got != 1 {
		t.Errorf("delivered %d", got)
	}
}

func TestRingCreditDeadlock(t *testing.T) {
	// The classic wormhole cycle: 4 long packets, each traveling two hops
	// clockwise, injected simultaneously with tiny buffers. Each packet's
	// head waits on the ring link held by the next packet: true deadlock.
	e := New(Config{BufferDepth: 1, LinkDelay: 1})
	eps, _ := buildRing(e, 4)
	for i := 0; i < 4; i++ {
		e.Inject(eps[i], mkPacket(uint64(i+1), geom.Coord{(i + 2) % 4}, 16))
	}
	drained := e.RunUntilQuiescent(2000)
	if drained {
		t.Fatal("expected deadlock, network drained")
	}
	// Verify quiescence of movement: stepping further moves nothing.
	m := e.Moves()
	for i := 0; i < 50; i++ {
		e.Step()
	}
	if e.Moves() != m {
		t.Errorf("moves still advancing after wedge: %d -> %d", m, e.Moves())
	}
	if e.Resident() == 0 {
		t.Error("resident hit zero in a deadlock")
	}
	// The snapshot must show blocked ports with owned wants or credit stalls.
	blocked := e.BlockedPorts()
	if len(blocked) == 0 {
		t.Error("no blocked ports reported in a deadlock")
	}
}

func TestFailedSwitchDropsAndReports(t *testing.T) {
	e := New(DefaultConfig())
	a, sw, _ := line(e)
	sw.Failed = true
	type drop struct {
		at *Node
		id uint64
	}
	var drops []drop
	e.OnDrop = func(d Drop) { drops = append(drops, drop{d.At, d.Header.PacketID}) }
	delivered := 0
	e.OnDeliver = func(Delivery) { delivered++ }
	e.Inject(a, mkPacket(3, geom.Coord{}, 4))
	if !e.RunUntilQuiescent(200) {
		t.Fatal("did not drain")
	}
	if delivered != 0 {
		t.Errorf("delivered %d through failed switch", delivered)
	}
	if len(drops) != 1 || e.Dropped() != 1 {
		t.Fatalf("drops = %d (counter %d)", len(drops), e.Dropped())
	}
	if drops[0].at != sw || drops[0].id != 3 {
		t.Errorf("drop = %+v", drops[0])
	}
}

func TestRouteErrorDrops(t *testing.T) {
	e := New(DefaultConfig())
	a := e.AddEndpoint("A", nil)
	b := e.AddEndpoint("B", nil)
	bad := func(n *Node, in int, h *flit.Header) (Decision, error) {
		return Decision{}, fmt.Errorf("unreachable")
	}
	sw := e.AddSwitch("SW", 2, bad, nil)
	e.Connect(a, 0, sw, 0)
	e.Connect(b, 0, sw, 1)
	var reason string
	e.OnDrop = func(d Drop) { reason = d.Reason }
	e.Inject(a, mkPacket(1, geom.Coord{}, 4))
	if !e.RunUntilQuiescent(200) {
		t.Fatal("did not drain after drop")
	}
	if reason != "unreachable" {
		t.Errorf("drop reason %q", reason)
	}
}

func TestAtomicAcquisitionHoldsNothingPartial(t *testing.T) {
	// One output busy with a long packet; an atomic fan-out wanting that
	// output plus a free one must hold neither until both are free.
	e := New(Config{BufferDepth: 2, LinkDelay: 1, Acquire: AcquireAtomic})
	src := e.AddEndpoint("SRC", nil)
	bc := e.AddEndpoint("BC", nil)
	d1 := e.AddEndpoint("D1", nil)
	d2 := e.AddEndpoint("D2", nil)
	route := func(n *Node, in int, h *flit.Header) (Decision, error) {
		if h.RC == flit.RCBroadcast {
			return Decision{Outs: []int{2, 3}}, nil
		}
		return Decision{Outs: []int{2}}, nil
	}
	sw := e.AddSwitch("SW", 4, route, nil)
	e.Connect(src, 0, sw, 0)
	e.Connect(bc, 0, sw, 1)
	e.Connect(d1, 0, sw, 2)
	e.Connect(d2, 0, sw, 3)

	e.Inject(src, mkPacket(1, geom.Coord{}, 12))
	h := &flit.Header{PacketID: 2, RC: flit.RCBroadcast}
	e.Inject(bc, flit.NewPacket(h, 4))

	// Step until the unicast owns port 2, then check the fan-out holds no
	// ports while waiting.
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if sw.Out[2].Owner() == nil {
		t.Fatal("unicast did not claim port 2")
	}
	if sw.Out[3].Owner() != nil {
		t.Error("atomic fan-out holds port 3 while port 2 is busy")
	}
	got := 0
	e.OnDeliver = func(Delivery) { got++ }
	if !e.RunUntilQuiescent(500) {
		t.Fatal("did not drain")
	}
	if got != 3 { // unicast to D1, broadcast to D1+D2
		t.Errorf("delivered %d, want 3", got)
	}
}

func TestIncrementalAcquisitionHoldsPartial(t *testing.T) {
	// Same setup as the atomic test but incremental: the fan-out must hold
	// the free port while waiting for the busy one.
	e := New(Config{BufferDepth: 2, LinkDelay: 1, Acquire: AcquireIncremental})
	src := e.AddEndpoint("SRC", nil)
	bc := e.AddEndpoint("BC", nil)
	d1 := e.AddEndpoint("D1", nil)
	d2 := e.AddEndpoint("D2", nil)
	route := func(n *Node, in int, h *flit.Header) (Decision, error) {
		if h.RC == flit.RCBroadcast {
			return Decision{Outs: []int{2, 3}}, nil
		}
		return Decision{Outs: []int{2}}, nil
	}
	sw := e.AddSwitch("SW", 4, route, nil)
	e.Connect(src, 0, sw, 0)
	e.Connect(bc, 0, sw, 1)
	e.Connect(d1, 0, sw, 2)
	e.Connect(d2, 0, sw, 3)

	e.Inject(src, mkPacket(1, geom.Coord{}, 12))
	h := &flit.Header{PacketID: 2, RC: flit.RCBroadcast}
	e.Inject(bc, flit.NewPacket(h, 4))
	for i := 0; i < 10; i++ {
		e.Step()
	}
	if sw.Out[2].Owner() == nil {
		t.Fatal("unicast did not claim port 2")
	}
	if sw.Out[3].Owner() == nil || sw.Out[3].Owner().Node() != sw || sw.Out[3].Owner().Index() != 1 {
		t.Error("incremental fan-out did not hold the free port 3")
	}
	if !e.RunUntilQuiescent(500) {
		t.Fatal("did not drain")
	}
}

func TestPhysicalChannelSharesBandwidth(t *testing.T) {
	// Two parallel streams on two "virtual channel" outputs multiplexed over
	// one physical channel must take about twice as long as one stream.
	build := func(shared bool) int64 {
		e := New(Config{BufferDepth: 8, LinkDelay: 1})
		s0 := e.AddEndpoint("S0", nil)
		s1 := e.AddEndpoint("S1", nil)
		r0 := e.AddEndpoint("R0", nil)
		r1 := e.AddEndpoint("R1", nil)
		route := func(n *Node, in int, h *flit.Header) (Decision, error) {
			return Decision{Outs: []int{in + 2}}, nil
		}
		sw := e.AddSwitch("SW", 4, route, nil)
		e.Connect(s0, 0, sw, 0)
		e.Connect(s1, 0, sw, 1)
		e.Connect(r0, 0, sw, 2)
		e.Connect(r1, 0, sw, 3)
		if shared {
			e.SharePhysical(sw.Out[2], sw.Out[3])
		}
		for i := 0; i < 4; i++ {
			e.Inject(s0, mkPacket(uint64(10+i), geom.Coord{}, 16))
			e.Inject(s1, mkPacket(uint64(20+i), geom.Coord{}, 16))
		}
		var last int64
		e.OnDeliver = func(d Delivery) { last = d.Cycle }
		if !e.RunUntilQuiescent(5000) {
			t.Fatal("did not drain")
		}
		return last
	}
	dedicated := build(false)
	shared := build(true)
	if shared < dedicated*3/2 {
		t.Errorf("shared channel finished at %d, dedicated at %d; expected ~2x slowdown", shared, dedicated)
	}
}

func TestEjectRateLimit(t *testing.T) {
	e := New(Config{BufferDepth: 4, LinkDelay: 1, EjectRate: 1})
	a, _, _ := line(e)
	got := 0
	e.OnDeliver = func(Delivery) { got++ }
	e.Inject(a, mkPacket(1, geom.Coord{}, 8))
	if !e.RunUntilQuiescent(200) {
		t.Fatal("did not drain")
	}
	if got != 1 {
		t.Errorf("delivered %d", got)
	}
}

func TestOnForwardTracesPath(t *testing.T) {
	e := New(DefaultConfig())
	a, _, _ := line(e)
	var hops []string
	e.OnForward = func(from *Node, out int, h *flit.Header, cycle int64) {
		hops = append(hops, fmt.Sprintf("%s.%d", from.Name, out))
	}
	e.Inject(a, mkPacket(1, geom.Coord{}, 2))
	e.RunUntilQuiescent(100)
	want := []string{"A.0", "SW.1"}
	if len(hops) != len(want) {
		t.Fatalf("hops = %v", hops)
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Errorf("hop %d = %s, want %s", i, hops[i], want[i])
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		e := New(Config{BufferDepth: 1, LinkDelay: 1})
		eps, _ := buildRing(e, 6)
		for i := 0; i < 6; i++ {
			e.Inject(eps[i], mkPacket(uint64(i), geom.Coord{(i + 3) % 6}, 5))
		}
		e.RunUntilQuiescent(10000)
		return e.Cycle(), e.Moves()
	}
	c1, m1 := run()
	c2, m2 := run()
	if c1 != c2 || m1 != m2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", c1, m1, c2, m2)
	}
}

func TestInjectValidation(t *testing.T) {
	e := New(DefaultConfig())
	a, sw, _ := line(e)
	_ = a
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Inject on switch did not panic")
			}
		}()
		e.Inject(sw, mkPacket(1, geom.Coord{}, 1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Inject of headerless flits did not panic")
			}
		}()
		p := mkPacket(1, geom.Coord{}, 2)
		e.Inject(a, p[1:])
	}()
	// Empty injection is a no-op.
	e.Inject(a, nil)
	if e.Resident() != 0 {
		t.Error("empty inject changed resident count")
	}
}

func TestResidentAccounting(t *testing.T) {
	e := New(DefaultConfig())
	a, _, _ := line(e)
	e.OnDeliver = func(Delivery) {}
	e.Inject(a, mkPacket(1, geom.Coord{}, 5))
	if e.Resident() != 5 {
		t.Fatalf("resident after inject = %d", e.Resident())
	}
	e.RunUntilQuiescent(100)
	if e.Resident() != 0 {
		t.Errorf("resident after drain = %d", e.Resident())
	}
}

func TestConfigNormalization(t *testing.T) {
	e := New(Config{BufferDepth: -3, LinkDelay: 0, EjectRate: -1})
	c := e.Config()
	if c.BufferDepth != 1 || c.LinkDelay != 1 || c.EjectRate != 0 {
		t.Errorf("normalized config = %+v", c)
	}
}

func TestStalledEndpoints(t *testing.T) {
	// Block the switch so the endpoint cannot inject past its credits.
	e := New(Config{BufferDepth: 1, LinkDelay: 1})
	a := e.AddEndpoint("A", nil)
	b := e.AddEndpoint("B", nil)
	c := e.AddEndpoint("C", nil)
	// Both A and B send to C forever; one will stall behind the other.
	toC := func(n *Node, in int, h *flit.Header) (Decision, error) {
		return Decision{Outs: []int{2}}, nil
	}
	sw3 := e.AddSwitch("SW", 3, toC, nil)
	e.Connect(a, 0, sw3, 0)
	e.Connect(b, 0, sw3, 1)
	e.Connect(c, 0, sw3, 2)
	e.Inject(a, mkPacket(1, geom.Coord{}, 40))
	e.Inject(b, mkPacket(2, geom.Coord{}, 40))
	for i := 0; i < 6; i++ {
		e.Step()
	}
	if len(e.StalledEndpoints()) == 0 {
		t.Error("expected a stalled endpoint while streams contend")
	}
	if !e.RunUntilQuiescent(1000) {
		t.Fatal("did not drain")
	}
}

func TestTopologyGrowthBetweenSteps(t *testing.T) {
	// Growing the network mid-run (AddSwitch, AddEndpoint, Connect between
	// Steps) must leave the active sets valid: flits already in flight keep
	// moving, the new elements are scheduled once traffic reaches them, and
	// the scheduled kernel tracks the full-scan reference hash for hash.
	const n = 4
	// growAndInject appends switch S<n> with its endpoint to the chain's
	// tail, then sends one packet across the new link and one from the new
	// endpoint to itself.
	growAndInject := func(e *Engine, eps []*Node) {
		sw := e.AddSwitch(fmt.Sprintf("S%d", n), 3, func(nd *Node, in int, h *flit.Header) (Decision, error) {
			return Decision{Outs: []int{2}}, nil
		}, nil)
		ep := e.AddEndpoint(fmt.Sprintf("P%d", n), nil)
		e.Connect(ep, 0, sw, 2)
		e.Connect(e.Switches()[n-1], 1, sw, 0)
		e.Inject(eps[0], flit.NewPacket(&flit.Header{PacketID: 99, Dst: geom.Coord{n}}, 4))
		e.Inject(ep, flit.NewPacket(&flit.Header{PacketID: 98, Dst: geom.Coord{n}}, 2))
	}
	on, onEps := chainScenario(DefaultConfig(), n)
	offCfg := DefaultConfig()
	offCfg.DisableActiveSet = true
	off, offEps := chainScenario(offCfg, n)
	delivered := 0
	on.OnDeliver = func(d Delivery) {
		if d.Header.PacketID == 99 {
			delivered++
		}
	}
	for c := 0; c < 600; c++ {
		if c == 5 {
			if on.Quiescent() {
				t.Fatal("network drained before the growth point; nothing in flight to preserve")
			}
			growAndInject(on, onEps)
			growAndInject(off, offEps)
		}
		on.Step()
		off.Step()
		if hOn, hOff := on.StateHash(), off.StateHash(); hOn != hOff {
			t.Fatalf("modes diverged at cycle %d: scheduled=%#x fullscan=%#x", c+1, hOn, hOff)
		}
		if err := on.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", c+1, err)
		}
		if c > 5 && on.Quiescent() && off.Quiescent() {
			if delivered != 1 {
				t.Fatalf("packet routed over the grown link delivered %d times, want 1", delivered)
			}
			return
		}
	}
	t.Fatal("grown network did not drain in 600 cycles")
}
