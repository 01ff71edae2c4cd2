package engine

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// chainScenario builds a chain of n 3-port switches (left 0, right 1, local
// endpoint 2) with one PE each, injects a deterministic crossing workload,
// and returns the engine plus its endpoints. Packets route rightward until
// they reach the switch whose index matches Dst[0]; keeping the channel
// dependencies acyclic means every workload drains.
func chainScenario(cfg Config, n int) (*Engine, []*Node) {
	e := New(cfg)
	sws := make([]*Node, n)
	eps := make([]*Node, n)
	for i := 0; i < n; i++ {
		idx := i
		route := func(nd *Node, in int, h *flit.Header) (Decision, error) {
			if h.Dst[0] == idx {
				return Decision{Outs: []int{2}}, nil
			}
			return Decision{Outs: []int{1}}, nil
		}
		sws[i] = e.AddSwitch(fmt.Sprintf("S%d", i), 3, route, nil)
		eps[i] = e.AddEndpoint(fmt.Sprintf("P%d", i), nil)
	}
	for i := 0; i < n; i++ {
		e.Connect(eps[i], 0, sws[i], 2)
		if i+1 < n {
			e.Connect(sws[i], 1, sws[i+1], 0)
		}
	}
	id := uint64(0)
	for i := 0; i < n; i++ {
		for _, hop := range []int{1, 2, n/2 + 1} {
			dst := i + hop
			if dst >= n {
				continue
			}
			id++
			e.Inject(eps[i], flit.NewPacket(&flit.Header{PacketID: id, Dst: geom.Coord{dst}}, 3+int(id)%6))
		}
	}
	return e, eps
}

// hashStream steps the engine `cycles` times and records StateHash after
// every step.
func hashStream(e *Engine, cycles int) []uint64 {
	out := make([]uint64, cycles)
	for i := range out {
		e.Step()
		out[i] = e.StateHash()
	}
	return out
}

func TestStateHashRepeatable(t *testing.T) {
	// Two engines built and driven identically must produce identical
	// per-cycle hash streams — the kernel has no hidden nondeterminism.
	a, _ := chainScenario(DefaultConfig(), 6)
	b, _ := chainScenario(DefaultConfig(), 6)
	ha := hashStream(a, 300)
	hb := hashStream(b, 300)
	for i := range ha {
		if ha[i] != hb[i] {
			t.Fatalf("hash diverged at cycle %d: %#x vs %#x", i+1, ha[i], hb[i])
		}
	}
	if !a.Quiescent() || !b.Quiescent() {
		t.Fatal("scenario did not drain in 300 cycles")
	}
}

func TestStateHashSensitivity(t *testing.T) {
	// The hash must actually depend on state: an extra packet, or one more
	// step, must change it.
	a, _ := chainScenario(DefaultConfig(), 6)
	b, eps := chainScenario(DefaultConfig(), 6)
	b.Inject(eps[0], flit.NewPacket(&flit.Header{PacketID: 999, Dst: geom.Coord{3}}, 4))
	if a.StateHash() == b.StateHash() {
		t.Error("hash ignored an injected packet")
	}
	h0 := a.StateHash()
	a.Step()
	if a.StateHash() == h0 {
		t.Error("hash ignored a step on a busy network")
	}
}

func TestActiveSetEquivalence(t *testing.T) {
	// The scheduled kernel and the full-scan reference must agree on every
	// cycle's complete state, under backpressure-heavy and roomy configs.
	cfgs := []Config{
		{BufferDepth: 1, LinkDelay: 1, Acquire: AcquireAtomic},
		{BufferDepth: 2, LinkDelay: 1, Acquire: AcquireAtomic},
		{BufferDepth: 4, LinkDelay: 3, Acquire: AcquireIncremental},
		{BufferDepth: 8, LinkDelay: 2, Acquire: AcquireAtomic, EjectRate: 1},
	}
	for _, cfg := range cfgs {
		cfg := cfg
		t.Run(fmt.Sprintf("depth%d_delay%d", cfg.BufferDepth, cfg.LinkDelay), func(t *testing.T) {
			on, _ := chainScenario(cfg, 8)
			offCfg := cfg
			offCfg.DisableActiveSet = true
			off, _ := chainScenario(offCfg, 8)
			for c := 0; c < 600; c++ {
				on.Step()
				off.Step()
				if hOn, hOff := on.StateHash(), off.StateHash(); hOn != hOff {
					t.Fatalf("modes diverged at cycle %d: scheduled=%#x fullscan=%#x", c+1, hOn, hOff)
				}
				if on.Quiescent() && off.Quiescent() {
					return
				}
			}
			t.Fatal("scenario did not drain in 600 cycles")
		})
	}
}

func TestCountersObserveScheduling(t *testing.T) {
	e, _ := chainScenario(DefaultConfig(), 8)
	e.RunUntilQuiescent(1000)
	// Idle a while: the active sets must empty and skipping must dominate.
	for i := 0; i < 200; i++ {
		e.Step()
	}
	c := e.Counters()
	if c.Cycles == 0 || c.Visits() == 0 {
		t.Fatalf("counters not populated: %+v", c)
	}
	if c.Skipped() == 0 || c.SkipRatio() <= 0 {
		t.Errorf("active-set scheduling skipped nothing: %+v", c)
	}
	if c.RouteStatesAllocated == 0 {
		t.Errorf("no route states accounted: %+v", c)
	}

	off := DefaultConfig()
	off.DisableActiveSet = true
	e2, _ := chainScenario(off, 8)
	e2.RunUntilQuiescent(1000)
	if s := e2.Counters().Skipped(); s != 0 {
		t.Errorf("full-scan mode reported %d skipped visits", s)
	}
}

func TestActiveSetOrderAndLateArrivals(t *testing.T) {
	// The set is what replaced the sorted lists: members come out in index
	// order whatever order they went in, and an element added while the
	// set's own sweep runs joins only when the sweep ends.
	var s activeSet
	s.resize(200)
	for _, i := range []int{130, 3, 64, 199, 0, 63} {
		s.add(i)
	}
	s.remove(64)
	walk := func() []int {
		var got []int
		for wi, w := range s.words {
			for ; w != 0; w &= w - 1 {
				got = append(got, wi<<6|bits.TrailingZeros64(w))
			}
		}
		return got
	}
	if got, want := walk(), []int{0, 3, 63, 130, 199}; !slices.Equal(got, want) || s.n != len(want) {
		t.Fatalf("members %v (n=%d), want %v", got, s.n, want)
	}
	if visited := s.beginSweep(); visited != 5 {
		t.Fatalf("sweep charges %d visits, want 5", visited)
	}
	s.add(150) // ahead of the sweep position or not, it waits
	s.add(1)
	if got := walk(); len(got) != 5 || s.n != 5 {
		t.Fatalf("late arrivals visible during the sweep: %v (n=%d)", got, s.n)
	}
	s.endSweep()
	if got, want := walk(), []int{0, 1, 3, 63, 130, 150, 199}; !slices.Equal(got, want) || s.n != len(want) {
		t.Fatalf("after the sweep %v (n=%d), want %v", got, s.n, want)
	}
	s.clear()
	if got := walk(); len(got) != 0 || s.n != 0 {
		t.Fatalf("clear left %v (n=%d)", got, s.n)
	}
}

func TestActivationDuringOwnSweepWaitsACycle(t *testing.T) {
	// An OnForward hook fires inside the injection sweep when an endpoint's
	// header leaves. A packet it queues at an idle endpoint the sweep has not
	// reached yet must still leave one cycle later, not in the same sweep:
	// the activation joins the set when the sweep ends. (The full scan would
	// serve it at once; hooks that inject ahead of the sweep are outside the
	// equivalence the two modes promise.) An endpoint still lingering in the
	// set under the eviction hysteresis is served in the same sweep, as ever.
	firstFlitLeaves := func(lingering bool) (hookCycle, leftCycle int64) {
		e, eps := chainScenario(DefaultConfig(), 4)
		e.RunUntilQuiescent(1000)
		for i := 0; i < 3*idleEvictAfter; i++ {
			e.Step() // every set empties
		}
		if lingering {
			e.Inject(eps[2], flit.NewPacket(&flit.Header{PacketID: 500, Dst: geom.Coord{3}}, 1))
			e.Step()
			e.Step() // sent; eps[2] idles in the injection set for a few cycles yet
		}
		hookCycle, leftCycle = -1, -1
		e.OnForward = func(from *Node, out int, h *flit.Header, cycle int64) {
			switch {
			case from == eps[0] && h.PacketID == 501:
				hookCycle = cycle
				e.Inject(eps[2], flit.NewPacket(&flit.Header{PacketID: 502, Dst: geom.Coord{3}}, 1))
			case from == eps[2] && h.PacketID == 502:
				leftCycle = cycle
			}
		}
		e.Inject(eps[0], flit.NewPacket(&flit.Header{PacketID: 501, Dst: geom.Coord{1}}, 1))
		e.RunUntilQuiescent(100)
		return hookCycle, leftCycle
	}
	if hook, left := firstFlitLeaves(false); hook < 0 || left != hook+1 {
		t.Errorf("idle endpoint: hook injected in cycle %d, the packet left in cycle %d, want the cycle after", hook, left)
	}
	if hook, left := firstFlitLeaves(true); hook < 0 || left != hook {
		t.Errorf("lingering endpoint: hook injected in cycle %d, the packet left in cycle %d, want the same cycle", hook, left)
	}
}
