package engine

import (
	"math/rand"
	"strings"
	"testing"

	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// checkEvery steps the engine n cycles, auditing invariants after each.
func checkEvery(t *testing.T, e *Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		e.Step()
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", e.Cycle(), err)
		}
	}
}

func TestInvariantsSimpleTraffic(t *testing.T) {
	e := New(DefaultConfig())
	a, _, _ := line(e)
	e.InjectPacket(a, flit.Header{PacketID: 1}, 6)
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("after inject: %v", err)
	}
	checkEvery(t, e, 60)
	if !e.Quiescent() {
		t.Fatal("did not drain")
	}
}

// Property-style audit: a randomized mix of unicast and fan-out traffic on a
// random switch fabric must preserve every invariant on every cycle,
// including through deadlocks (a wedged network still conserves flits and
// credits).
func TestInvariantsRandomizedFabric(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			BufferDepth: 1 + rng.Intn(4),
			Acquire:     AcquireMode(rng.Intn(2)),
		}
		e := New(cfg)

		// A ring of switches with two endpoints per switch and a chord.
		k := 3 + rng.Intn(4)
		route := func(n *Node, in int, h *flit.Header) (Decision, error) {
			self := n.Meta.(int)
			if h.Dst[0] == self {
				if h.Dst[1] == 1 {
					return Decision{Outs: []int{1}}, nil
				}
				return Decision{Outs: []int{0}}, nil
			}
			if h.RC == flit.RCBroadcast {
				// Fan to both endpoints and onward.
				return Decision{Outs: []int{0, 1, 3}}, nil
			}
			return Decision{Outs: []int{3}}, nil
		}
		var eps []*Node
		var sws []*Node
		for i := 0; i < k; i++ {
			e0 := e.AddEndpoint("", i)
			e1 := e.AddEndpoint("", i)
			sw := e.AddSwitch("", 4, route, i)
			e.Connect(e0, 0, sw, 0)
			e.Connect(e1, 0, sw, 1)
			eps = append(eps, e0, e1)
			sws = append(sws, sw)
		}
		for i := 0; i < k; i++ {
			e.ConnectDirected(sws[i], 3, sws[(i+1)%k], 2)
		}

		var id uint64
		for cycle := 0; cycle < 300; cycle++ {
			if rng.Float64() < 0.3 {
				id++
				src := eps[rng.Intn(len(eps))]
				h := flit.Header{
					PacketID: id,
					Dst:      geom.Coord{rng.Intn(k), rng.Intn(2)},
				}
				e.InjectPacket(src, h, 1+rng.Intn(10))
			}
			e.Step()
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("seed %d cycle %d: %v", seed, cycle, err)
			}
		}
		// Note: broadcast-marked packets are not injected here because the
		// ring fan would replicate forever; unicast + the fan decision path
		// is exercised via the engine fan tests below.
	}
}

// Fan-out traffic with contention must also preserve the invariants even
// while partially granted (incremental mode holds partial port sets).
func TestInvariantsUnderFanOutContention(t *testing.T) {
	for _, mode := range []AcquireMode{AcquireAtomic, AcquireIncremental} {
		e := New(Config{BufferDepth: 2, Acquire: mode})
		src1 := e.AddEndpoint("S1", nil)
		src2 := e.AddEndpoint("S2", nil)
		d1 := e.AddEndpoint("D1", nil)
		d2 := e.AddEndpoint("D2", nil)
		fan := func(n *Node, in int, h *flit.Header) (Decision, error) {
			return Decision{Outs: []int{2, 3}}, nil
		}
		sw := e.AddSwitch("SW", 4, fan, nil)
		e.Connect(src1, 0, sw, 0)
		e.Connect(src2, 0, sw, 1)
		e.Connect(d1, 0, sw, 2)
		e.Connect(d2, 0, sw, 3)
		e.InjectPacket(src1, flit.Header{PacketID: 1}, 8)
		e.InjectPacket(src2, flit.Header{PacketID: 2}, 8)
		for i := 0; i < 80; i++ {
			e.Step()
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("mode %v cycle %d: %v", mode, i, err)
			}
		}
		if !e.Quiescent() {
			t.Fatalf("mode %v: fan-out contention did not drain", mode)
		}
	}
}

// A deadlocked network still satisfies conservation: nothing leaks, nothing
// is double-counted; the wedge is purely a waiting cycle.
func TestInvariantsHoldInDeadlock(t *testing.T) {
	e := New(Config{BufferDepth: 1})
	eps, _ := buildRing(e, 4)
	for i := 0; i < 4; i++ {
		e.InjectPacket(eps[i], flit.Header{PacketID: uint64(i + 1), Dst: geom.Coord{(i + 2) % 4}}, 16)
	}
	for i := 0; i < 300; i++ {
		e.Step()
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	if e.Quiescent() {
		t.Fatal("expected a wedged ring")
	}
}

// TestWiringLaw: law 6 holds after construction, growth and Restore, and a
// corrupted column entry is reported by the name of its port.
func TestWiringLaw(t *testing.T) {
	build := func() (*Engine, *Node) {
		e := New(DefaultConfig())
		a, sw, _ := line(e)
		e.InjectPacket(a, flit.Header{PacketID: 1}, 6)
		return e, sw
	}
	grow := func(e *Engine) {
		sw := e.AddSwitch("SW2", 2, passThrough, nil)
		e.Connect(e.AddEndpoint("C", nil), 0, sw, 0)
		e.Connect(e.AddEndpoint("D", nil), 0, sw, 1)
	}
	e, _ := build()
	checkEvery(t, e, 3)
	grow(e)
	checkEvery(t, e, 3)
	r, _ := build()
	grow(r)
	if err := r.Restore(e.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("after Restore: %v", err)
	}
	for _, tc := range []struct {
		what    string
		corrupt func(e *Engine, sw *Node)
		port    string
	}{
		{"upstream", func(e *Engine, sw *Node) { e.in[sw.In[1].id].up = -1 }, "SW.in1"},
		{"downstream", func(e *Engine, sw *Node) { e.out[sw.Out[0].id].down = sw.In[1].id }, "SW.out0"},
		{"active-set bit", func(e *Engine, sw *Node) { e.in[sw.In[1].id].bit = e.in[sw.In[0].id].bit }, "SW.in1"},
		{"column length", func(e *Engine, sw *Node) { e.out = e.out[:len(e.out)-1] }, "columns"},
	} {
		e, sw := build()
		tc.corrupt(e, sw)
		if err := e.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.port) {
			t.Errorf("%s corrupted: CheckInvariants returned %v, want an error naming %s", tc.what, err, tc.port)
		}
	}
}
