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
