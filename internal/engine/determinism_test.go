package engine

import (
	"fmt"
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
			e.InjectPacket(eps[i], flit.Header{PacketID: id, Dst: geom.Coord{dst}}, 3+int(id)%6)
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
	b.InjectPacket(eps[0], flit.Header{PacketID: 999, Dst: geom.Coord{3}}, 4)
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
		{BufferDepth: 1, Acquire: AcquireAtomic},
		{BufferDepth: 2, Acquire: AcquireAtomic},
		{BufferDepth: 4, Acquire: AcquireIncremental},
		{BufferDepth: 8, Acquire: AcquireAtomic},
	}
	for _, cfg := range cfgs {
		cfg := cfg
		t.Run(fmt.Sprintf("depth%d_delay1", cfg.BufferDepth), func(t *testing.T) {
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
				if err := on.CheckActiveSets(); err != nil {
					t.Fatalf("cycle %d: %v", c+1, err)
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
	// order whatever order they went in. An element added while a sweep
	// runs is visited by that sweep if it lies ahead of the cursor and by
	// the next one if it lies behind.
	var s activeSet
	s.resize(200)
	for _, i := range []int{130, 3, 64, 199, 0, 63} {
		s.add(i)
	}
	s.remove(64)
	walk := func(visit func(int)) []int {
		var got []int
		for i := s.next(-1); i >= 0; i = s.next(i) {
			got = append(got, i)
			visit(i)
		}
		return got
	}
	if got, want := walk(func(int) {}), []int{0, 3, 63, 130, 199}; !slices.Equal(got, want) {
		t.Fatalf("members %v, want %v", got, want)
	}
	got := walk(func(i int) {
		if i == 3 {
			s.add(1)   // behind the cursor
			s.add(4)   // in the cursor's word, ahead
			s.add(150) // in a later word
			s.remove(3)
		}
	})
	if want := []int{0, 3, 4, 63, 130, 150, 199}; !slices.Equal(got, want) {
		t.Fatalf("sweep visited %v, want %v", got, want)
	}
	if got, want := walk(func(int) {}), []int{0, 1, 4, 63, 130, 150, 199}; !slices.Equal(got, want) {
		t.Fatalf("after the sweep %v, want %v", got, want)
	}
	s.clear()
	if got := walk(func(int) {}); len(got) != 0 {
		t.Fatalf("clear left %v", got)
	}
}

func TestHookActivationDuringSweepMatchesFullScan(t *testing.T) {
	// An OnForward hook fires inside the injection sweep when an endpoint's
	// header leaves. A packet it queues at an idle endpoint ahead of the
	// sweep cursor leaves in the same sweep; one it queues behind the cursor
	// leaves in the next cycle's. That is what the full scan does, and the
	// two modes must agree hash for hash.
	run := func(disable bool) (stream []uint64, left map[uint64]int64) {
		cfg := DefaultConfig()
		cfg.DisableActiveSet = disable
		e, eps := chainScenario(cfg, 4)
		e.RunUntilQuiescent(1000)
		left = map[uint64]int64{}
		e.OnForward = func(from *Node, out int, h *flit.Header, cycle int64) {
			if from.Kind != KindEndpoint {
				return
			}
			left[h.PacketID] = cycle
			if h.PacketID == 501 {
				e.InjectPacket(eps[2], flit.Header{PacketID: 502, Dst: geom.Coord{3}}, 2) // ahead
				e.InjectPacket(eps[0], flit.Header{PacketID: 503, Dst: geom.Coord{2}}, 2) // behind
			}
		}
		e.InjectPacket(eps[1], flit.Header{PacketID: 501, Dst: geom.Coord{2}}, 1)
		for c := 0; c < 100 && !e.Quiescent(); c++ {
			e.Step()
			stream = append(stream, e.StateHash())
			if err := e.CheckActiveSets(); err != nil {
				t.Fatalf("cycle %d: %v", e.Cycle(), err)
			}
		}
		if !e.Quiescent() {
			t.Fatal("scenario did not drain in 100 cycles")
		}
		return stream, left
	}
	on, onLeft := run(false)
	off, offLeft := run(true)
	if !slices.Equal(on, off) {
		t.Errorf("hash streams differ: scheduled %d cycles, full scan %d", len(on), len(off))
	}
	for name, left := range map[string]map[uint64]int64{"scheduled": onLeft, "full scan": offLeft} {
		if hook := left[501]; left[502] != hook || left[503] != hook+1 {
			t.Errorf("%s: hook fired in cycle %d; ahead left in %d (want %d), behind in %d (want %d)",
				name, hook, left[502], hook, left[503], hook+1)
		}
	}
}
