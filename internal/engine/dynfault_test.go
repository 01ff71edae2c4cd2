package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

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

func TestStressKillAndSnapshot(t *testing.T) {
	// Whole-network surgery interleaved with traffic and snapshots, over
	// buffer depths 1 to 8: a mid-run
	// KillSwitch, a KillPacket purge, seeded injections, delivery and
	// forwarding hooks that inject from inside the phases, and an invariant
	// audit plus a snapshot round trip every few cycles. Invariants — credit
	// conservation, no lost/duplicated flits (resident accounting),
	// ownership consistency — must hold throughout, a snapshot must restore
	// to the same state and re-encode to the same bytes, and the scheduled
	// kernel must track the identically-abused full-scan reference hash for
	// hash.
	const n = 12
	run := func(t *testing.T, cfg Config) (*Engine, []uint64, hash.Hash64) {
		e, eps := chainScenario(cfg, n)
		rng := rand.New(rand.NewSource(7))
		var stream []uint64
		snaps := fnv.New64a()
		nextID := uint64(1000)
		inject := func(src, size int) {
			nextID++
			dst := src + 1 + int(nextID)%(n-1-src)
			e.InjectPacket(eps[src], flit.Header{PacketID: nextID, Dst: geom.Coord{dst}}, size)
		}
		// Hooks run inside the sweeps. A delivery (ejection phase) answers
		// from the receiving endpoint; a header leaving a switch (traversal
		// phase) or an endpoint (injection phase, the injection set's own
		// sweep) queues a packet at the endpoint below it, which the sweep
		// has passed, so both kernels first serve it in the next cycle.
		replies, purged := 0, 0
		e.OnDeliver = func(d Delivery) {
			if src := int(d.Header.Dst[0]); src < n-1 && replies < 40 {
				replies++
				inject(src, 3)
			}
		}
		e.OnForward = func(from *Node, out int, h *flit.Header, cycle int64) {
			if h.PacketID%5 != 0 || replies >= 40 {
				return
			}
			replies++
			at := int(h.Dst[0]) - 1 // a switch on the route, or the source
			if from.Kind == KindEndpoint {
				at = from.epIdx
			}
			inject(max(at-1, 0), 2)
		}
		for c := 0; c < 500; c++ {
			if c == 60 {
				e.KillSwitch(e.Switches()[5])
			}
			if c == 64 || c == 120 {
				// The packet of the flit on the wire into switch 3 if
				// there is one (the purge then takes a flit off a link),
				// else whatever is oldest in the network.
				victim := uint64(0)
				if p := e.Switches()[3].In[0].id; e.in[p].fly > 0 {
					victim = e.at(p, int(e.in[p].n)).PacketID
				}
				if hdrs, _ := e.InFlightHeaders(); victim == 0 && len(hdrs) > 0 {
					victim = hdrs[0].PacketID
				}
				if _, ok := e.KillPacket(victim); ok {
					purged++
				}
			}
			if c%17 == 0 {
				inject(rng.Intn(n-1), 4)
			}
			e.Step()
			stream = append(stream, e.StateHash())
			if c%5 == 0 {
				if err := e.CheckInvariants(); err != nil {
					t.Fatalf("cycle %d: %v", c, err)
				}
				snap := e.Snapshot()
				snaps.Write(snap)
				fresh, _ := chainScenario(cfg, n)
				if err := fresh.Restore(snap); err != nil {
					t.Fatalf("cycle %d: restore: %v", c, err)
				}
				if fresh.StateHash() != e.StateHash() || !bytes.Equal(fresh.Snapshot(), snap) {
					t.Fatalf("cycle %d: snapshot did not round-trip", c)
				}
			}
		}
		if replies < 40 || purged == 0 {
			t.Fatalf("hooks injected %d packets (want 40), KillPacket purged %d: the stress did not exercise them", replies, purged)
		}
		return e, stream, snaps
	}
	// Every run is also pinned by the digest of its StateHash stream and of
	// its snapshots, and by its final counters, as recorded from the kernel
	// that still kept a ring per link.
	var golden bytes.Buffer
	pin := func(name string, e *Engine, stream []uint64, snaps hash.Hash64) {
		h := fnv.New64a()
		for _, v := range stream {
			binary.Write(h, binary.LittleEndian, v)
		}
		fmt.Fprintf(&golden, "%s stream %016x snaps %016x counters %+v\n", name, h.Sum64(), snaps.Sum64(), e.Counters())
	}
	for depth := 1; depth <= 8; depth++ {
		// Named, as the golden's rows are, for the one-cycle links.
		name := fmt.Sprintf("delay1_depth%d", depth)
		t.Run(name, func(t *testing.T) {
			cfg := Config{BufferDepth: depth, Acquire: AcquireAtomic}
			got, stream, snaps := run(t, cfg)
			pin(name+" active", got, stream, snaps)
			cfg.DisableActiveSet = true
			ref, want, refSnaps := run(t, cfg)
			pin(name+" fullscan", ref, want, refSnaps)
			for i := range want {
				if stream[i] != want[i] {
					t.Fatalf("scheduled kernel diverged from full scan at cycle %d: %#x vs %#x", i+1, stream[i], want[i])
				}
			}
			if got.Resident() != ref.Resident() || got.Dropped() != ref.Dropped() {
				t.Fatalf("resident=%d dropped=%d, full scan resident=%d dropped=%d",
					got.Resident(), got.Dropped(), ref.Resident(), ref.Dropped())
			}
			if ref.Dropped() == 0 {
				t.Error("the killed switch dropped nothing — the stress did not exercise the sink path")
			}
		})
	}
	path := filepath.Join("testdata", "stress_kill.golden")
	if *update {
		if err := os.WriteFile(path, golden.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := golden.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("differs from %s at line %d:\ngot  %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("differs from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
