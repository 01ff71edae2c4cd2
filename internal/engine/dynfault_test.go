package engine

import "testing"

// packetPresentAt reports whether any flit of the packet is buffered at the
// node or in flight on a link into it.
func packetPresentAt(e *Engine, n *Node, id uint64) bool {
	for _, in := range n.In {
		for i := 0; i < int(e.in[in.id].n); i++ {
			if e.at(in.id, i).PacketID == id {
				return true
			}
		}
	}
	for _, in := range n.In {
		for r, i := e.in[in.id], int(e.in[in.id].n); i < int(r.n+r.fly); i++ {
			if e.at(in.id, i).PacketID == id {
				return true
			}
		}
	}
	return false
}

func totalReceived(eps []*Node) int64 {
	var sum int64
	for _, ep := range eps {
		sum += ep.Received
	}
	return sum
}

func TestKillSwitchMidRunConserves(t *testing.T) {
	// Kill a mid-chain switch at several different moments; after every kill
	// the conservation invariants must hold on every subsequent cycle, the
	// network must drain, and every injected packet must be accounted for as
	// either received or dropped.
	for _, killAt := range []int{0, 5, 12, 25, 60} {
		t.Run("", func(t *testing.T) {
			e, eps := chainScenario(DefaultConfig(), 8)
			var injected int64
			for _, ep := range eps {
				injected += ep.Injected
			}
			for c := 0; c < killAt; c++ {
				e.Step()
			}
			killed := e.KillSwitch(e.Switches()[4])
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("invariants broken immediately after kill: %v", err)
			}
			for i := 1; i < len(killed); i++ {
				if killed[i].ID <= killed[i-1].ID {
					t.Fatalf("killed list not sorted/unique: %v then %v", killed[i-1].ID, killed[i].ID)
				}
			}
			for _, k := range killed {
				if k.Header == nil {
					t.Errorf("killed packet %d lost its header", k.ID)
				}
			}
			for c := 0; c < 600; c++ {
				e.Step()
				if err := e.CheckInvariants(); err != nil {
					t.Fatalf("invariants broken %d cycles after kill: %v", c+1, err)
				}
				if e.Quiescent() {
					break
				}
			}
			if !e.Quiescent() {
				t.Fatal("network did not drain after kill")
			}
			if got := totalReceived(eps) + e.Dropped(); got != injected {
				t.Errorf("accounting: received+dropped=%d, injected=%d (killed=%d)",
					got, injected, len(killed))
			}
		})
	}
}

func TestKillSwitchDeterministic(t *testing.T) {
	// Two identical engines killed at the same cycle must report identical
	// casualties and stay in per-cycle StateHash lockstep afterwards.
	run := func() (*Engine, []KilledPacket) {
		e, _ := chainScenario(DefaultConfig(), 8)
		for c := 0; c < 15; c++ {
			e.Step()
		}
		return e, e.KillSwitch(e.Switches()[3])
	}
	a, ka := run()
	b, kb := run()
	if len(ka) != len(kb) {
		t.Fatalf("casualty counts differ: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i].ID != kb[i].ID || ka[i].AlreadyDropped != kb[i].AlreadyDropped {
			t.Fatalf("casualty %d differs: %+v vs %+v", i, ka[i], kb[i])
		}
	}
	if len(ka) == 0 {
		t.Fatal("expected in-flight casualties at cycle 15")
	}
	ha := hashStream(a, 300)
	hb := hashStream(b, 300)
	for i := range ha {
		if ha[i] != hb[i] {
			t.Fatalf("hash diverged %d cycles after kill: %#x vs %#x", i+1, ha[i], hb[i])
		}
	}
}

func TestKillSwitchSecondKillIsNoOp(t *testing.T) {
	e, _ := chainScenario(DefaultConfig(), 8)
	for c := 0; c < 15; c++ {
		e.Step()
	}
	sw := e.Switches()[3]
	first := e.KillSwitch(sw)
	if len(first) == 0 {
		t.Fatal("expected casualties on first kill")
	}
	if again := e.KillSwitch(sw); len(again) != 0 {
		t.Fatalf("second kill reported %d casualties; the purge was incomplete", len(again))
	}
}

func TestKillSwitchAlreadyDroppedNotDoubleCounted(t *testing.T) {
	// A packet the routing layer already sank (dropped on arrival at a failed
	// switch) and that is then wounded by a second fault must not count
	// toward Dropped twice.
	e, _ := chainScenario(DefaultConfig(), 6)
	sws := e.Switches()
	e.KillSwitch(sws[3]) // quiet network: no casualties, but arrivals now sink
	var victim uint64
	for c := 0; c < 300 && victim == 0; c++ {
		e.Step()
		for _, in := range sws[3].In {
			rs := e.in[in.id].route
			if rs == nil || !rs.sink || rs.header == nil {
				continue
			}
			// The sinking packet must still occupy the upstream switch for
			// the second fault to wound it.
			if packetPresentAt(e, sws[2], rs.header.PacketID) {
				victim = rs.header.PacketID
			}
		}
	}
	if victim == 0 {
		t.Fatal("no packet found sinking at the dead switch with an upstream tail")
	}
	before := e.Dropped()
	killed := e.KillSwitch(sws[2])
	var fresh, already int64
	found := false
	for _, k := range killed {
		if k.AlreadyDropped {
			already++
		} else {
			fresh++
		}
		if k.ID == victim {
			found = true
			if !k.AlreadyDropped {
				t.Errorf("victim %d not marked AlreadyDropped", victim)
			}
		}
	}
	if !found {
		t.Fatalf("victim %d missing from casualty list %v", victim, killed)
	}
	if got := e.Dropped() - before; got != fresh {
		t.Errorf("Dropped grew by %d, want %d (fresh kills only; %d already dropped)", got, fresh, already)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !e.RunUntilQuiescent(600) {
		t.Fatal("network did not drain")
	}
}

func TestKillSwitchPanicsOnEndpoint(t *testing.T) {
	e, eps := chainScenario(DefaultConfig(), 4)
	defer func() {
		if recover() == nil {
			t.Fatal("KillSwitch on an endpoint did not panic")
		}
	}()
	e.KillSwitch(eps[0])
}

func TestPreCycleHookObservesEveryStep(t *testing.T) {
	e, _ := chainScenario(DefaultConfig(), 4)
	var cycles []int64
	e.PreCycle = func(c int64) { cycles = append(cycles, c) }
	for i := 0; i < 5; i++ {
		e.Step()
	}
	if len(cycles) != 5 {
		t.Fatalf("hook ran %d times, want 5", len(cycles))
	}
	for i, c := range cycles {
		if c != int64(i) {
			t.Fatalf("hook saw cycle %d at step %d", c, i)
		}
	}
}
