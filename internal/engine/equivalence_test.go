package engine_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/engine"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// TestActiveSetEquivalence: the scheduled kernel matches the spec on every
// cycle of the chain workload, over buffer depths 1–8 in both acquisition
// modes, until it drains, and its active sets hold the busy elements.
func TestActiveSetEquivalence(t *testing.T) {
	for depth := 1; depth <= 8; depth++ {
		for _, mode := range []engine.AcquireMode{engine.AcquireAtomic, engine.AcquireIncremental} {
			name := fmt.Sprintf("depth%d_delay1", depth)
			if mode == engine.AcquireIncremental {
				name += "_incremental"
			}
			t.Run(name, func(t *testing.T) {
				e, _ := engine.ChainScenario(engine.Config{BufferDepth: depth, Acquire: mode}, 8)
				l := newLockstep(e)
				for c := 0; c < 600 && !e.Quiescent(); c++ {
					e.Step()
					l.check(t)
					if err := e.CheckActiveSets(); err != nil {
						t.Fatalf("cycle %d: %v", c+1, err)
					}
				}
				if !e.Quiescent() {
					t.Fatal("scenario did not drain in 600 cycles")
				}
			})
		}
	}
}

// injector is what a workload needs of a kernel: the engine or the spec.
type injector interface {
	InjectPacket(ep *engine.Node, h flit.Header, size int)
}

// TestSpecRandomizedFabric holds TestInvariantsRandomizedFabric's generator
// to the spec: random rings of switches with two endpoints each, buffer
// depths 1–8 in both acquisition modes, with and without a second ring lane
// sharing the ring's physical channel that packets take provisionally while
// it is free. The load holds fan-outs to both PEs of a switch and to one PE
// and once more round the ring, header rewrites on every ring hop, routing
// errors and the wedges of a cyclic ring.
func TestSpecRandomizedFabric(t *testing.T) {
	for seed := int64(0); seed < 128; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := engine.Config{BufferDepth: 1 + int(seed%8), Acquire: engine.AcquireMode(seed / 8 % 2)}
		lanes := seed%32 >= 16
		e := engine.New(cfg)
		route := func(n *engine.Node, in int, h *flit.Header) (engine.Decision, error) {
			if h.Dst[0] == n.Meta.(int) {
				switch {
				case h.RC == flit.RCDetour: // once round the ring
					return engine.Decision{Outs: []int{1}}, nil
				case h.Dst[1] == 2:
					return engine.Decision{Outs: []int{0, 1}}, nil
				case h.Dst[1] == 3:
					return engine.Decision{}, fmt.Errorf("%s has no PE 3", n.Name)
				case h.Dst[1] == 4:
					return engine.Decision{Outs: []int{0, 3}, Rewrite: flit.SetRC(flit.RCDetour)}, nil
				}
				return engine.Decision{Outs: []int{h.Dst[1]}}, nil
			}
			if lanes && !n.Out[5].Owned() {
				return engine.Decision{Outs: []int{5}, Rewrite: flit.CountAdaptive, Provisional: true}, nil
			}
			return engine.Decision{Outs: []int{3}, Rewrite: flit.CountDetour}, nil
		}
		k := 3 + rng.Intn(4)
		var eps, sws []*engine.Node
		for i := 0; i < k; i++ {
			e0, e1 := e.AddEndpoint(fmt.Sprintf("P%d.0", i), i), e.AddEndpoint(fmt.Sprintf("P%d.1", i), i)
			sw := e.AddSwitch(fmt.Sprintf("S%d", i), 6, route, i)
			e.Connect(e0, 0, sw, 0)
			e.Connect(e1, 0, sw, 1)
			eps, sws = append(eps, e0, e1), append(sws, sw)
		}
		for i, sw := range sws {
			e.ConnectDirected(sw, 3, sws[(i+1)%k], 2)
			if lanes {
				e.ConnectDirected(sw, 5, sws[(i+1)%k], 4)
				e.SharePhysical(sw.Out[3], sw.Out[5])
			}
		}
		l := newLockstep(e)
		var id uint64
		for cycle := 0; cycle < 300; cycle++ {
			if rng.Float64() < 0.3 {
				id++
				h := flit.Header{PacketID: id, Dst: geom.Coord{rng.Intn(k), rng.Intn(5)}}
				e.InjectPacket(eps[rng.Intn(len(eps))], h, 1+rng.Intn(10))
			}
			e.Step()
			if l.err != nil {
				t.Fatalf("seed %d (%+v, lanes %v): %v", seed, cfg, lanes, l.err)
			}
		}
	}
}

// TestHookActivationDuringSweepMatchesFullScan: an OnForward hook fires
// inside the injection sweep when an endpoint's header leaves. A packet it
// queues at an idle endpoint ahead of the sweep cursor leaves in the same
// sweep; one it queues behind the cursor leaves in the next cycle's. That is
// what a full scan does, and the spec is one.
func TestHookActivationDuringSweepMatchesFullScan(t *testing.T) {
	e, eps := engine.ChainScenario(engine.DefaultConfig(), 4)
	l := newLockstep(e)
	e.RunUntilQuiescent(1000)
	l.check(t)
	hook := func(k injector, left map[uint64]int64) func(*engine.Node, int, *flit.Header, int64) {
		return func(from *engine.Node, out int, h *flit.Header, cycle int64) {
			if from.Kind != engine.KindEndpoint {
				return
			}
			left[h.PacketID] = cycle
			if h.PacketID == 501 {
				k.InjectPacket(eps[2], flit.Header{PacketID: 502, Dst: geom.Coord{3}}, 2) // ahead
				k.InjectPacket(eps[0], flit.Header{PacketID: 503, Dst: geom.Coord{2}}, 2) // behind
			}
		}
	}
	left, specLeft := map[uint64]int64{}, map[uint64]int64{}
	e.OnForward, l.s.OnForward = hook(e, left), hook(l.s, specLeft)
	e.InjectPacket(eps[1], flit.Header{PacketID: 501, Dst: geom.Coord{2}}, 1)
	for c := 0; c < 100 && !e.Quiescent(); c++ {
		e.Step()
		l.check(t)
		if err := e.CheckActiveSets(); err != nil {
			t.Fatalf("cycle %d: %v", e.Cycle(), err)
		}
	}
	if !e.Quiescent() {
		t.Fatal("scenario did not drain in 100 cycles")
	}
	for name, left := range map[string]map[uint64]int64{"engine": left, "spec": specLeft} {
		if hook := left[501]; left[502] != hook || left[503] != hook+1 {
			t.Errorf("%s: hook fired in cycle %d; ahead left in %d (want %d), behind in %d (want %d)",
				name, hook, left[502], hook, left[503], hook+1)
		}
	}
}

// growChain appends switch S<n> with its endpoint to a chain of n, then
// sends one packet across the new link and one from the new endpoint.
func growChain(e *engine.Engine, eps []*engine.Node, n int) {
	sw := e.AddSwitch(fmt.Sprintf("S%d", n), 3, func(*engine.Node, int, *flit.Header) (engine.Decision, error) {
		return engine.Decision{Outs: []int{2}}, nil
	}, nil)
	ep := e.AddEndpoint(fmt.Sprintf("P%d", n), nil)
	e.Connect(ep, 0, sw, 2)
	e.Connect(e.Switches()[n-1], 1, sw, 0)
	e.InjectPacket(eps[0], flit.Header{PacketID: 99, Dst: geom.Coord{n}}, 4)
	e.InjectPacket(ep, flit.Header{PacketID: 98, Dst: geom.Coord{n}}, 2)
}

// TestTopologyGrowthBetweenSteps: growing the network mid-run (AddSwitch,
// AddEndpoint, Connect between Steps) leaves the active sets valid: flits
// in flight keep moving, the new elements are scheduled once traffic
// reaches them, and the kernel matches the spec, which takes the new
// elements in at its next step.
func TestTopologyGrowthBetweenSteps(t *testing.T) {
	const n = 4
	e, eps := engine.ChainScenario(engine.DefaultConfig(), n)
	delivered := 0
	e.OnDeliver = func(d engine.Delivery) {
		if d.Header.PacketID == 99 {
			delivered++
		}
	}
	l := newLockstep(e)
	for c := 0; c < 600; c++ {
		if c == 5 {
			if e.Quiescent() {
				t.Fatal("network drained before the growth point; nothing in flight to preserve")
			}
			growChain(e, eps, n)
		}
		e.Step()
		l.check(t)
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", c+1, err)
		}
		if c > 5 && e.Quiescent() {
			if delivered != 1 {
				t.Fatalf("packet routed over the grown link delivered %d times, want 1", delivered)
			}
			return
		}
	}
	t.Fatal("grown network did not drain in 600 cycles")
}

// TestStressKillAndSnapshot: whole-network surgery interleaved with traffic
// and snapshots, over buffer depths 1 to 8: a mid-run KillSwitch, KillPacket
// purges, seeded injections, delivery and forwarding hooks that inject from
// inside the phases, and an invariant audit plus a snapshot round trip
// every few cycles. The kernel must match the spec on every cycle and
// purge, the invariants must hold throughout, and a snapshot must restore
// to the same state and re-encode to the same bytes.
func TestStressKillAndSnapshot(t *testing.T) {
	const n = 12
	// load is one kernel's copy of the workload's state.
	type load struct {
		k       injector
		nextID  uint64
		replies int
	}
	run := func(t *testing.T, cfg engine.Config) (*engine.Engine, []uint64, hash.Hash64) {
		e, eps := engine.ChainScenario(cfg, n)
		inject := func(ld *load, src, size int) {
			ld.nextID++
			dst := src + 1 + int(ld.nextID)%(n-1-src)
			ld.k.InjectPacket(eps[src], flit.Header{PacketID: ld.nextID, Dst: geom.Coord{dst}}, size)
		}
		// Hooks run inside the sweeps. A delivery (ejection phase) answers
		// from the receiving endpoint; a header leaving a switch (traversal
		// phase) or an endpoint (injection phase, the injection set's own
		// sweep) queues a packet at the endpoint below it, which the sweep
		// has passed, so both kernels first serve it in the next cycle.
		onDeliver := func(ld *load) func(engine.Delivery) {
			return func(d engine.Delivery) {
				if src := int(d.Header.Dst[0]); src < n-1 && ld.replies < 40 {
					ld.replies++
					inject(ld, src, 3)
				}
			}
		}
		onForward := func(ld *load) func(*engine.Node, int, *flit.Header, int64) {
			return func(from *engine.Node, out int, h *flit.Header, cycle int64) {
				if h.PacketID%5 != 0 || ld.replies >= 40 {
					return
				}
				ld.replies++
				at := int(h.Dst[0]) - 1 // a switch on the route, or the source
				if from.Kind == engine.KindEndpoint {
					at = slices.Index(e.Endpoints(), from)
				}
				inject(ld, max(at-1, 0), 2)
			}
		}
		loads := []*load{{k: e, nextID: 1000}, {nextID: 1000}}
		e.OnDeliver, e.OnForward = onDeliver(loads[0]), onForward(loads[0])
		l := newLockstep(e)
		loads[1].k = l.s
		l.s.OnDeliver, l.s.OnForward = onDeliver(loads[1]), onForward(loads[1])
		rng := rand.New(rand.NewSource(7))
		var stream []uint64
		snaps := fnv.New64a()
		purged := 0
		for c := 0; c < 500; c++ {
			if c == 60 {
				l.KillSwitch(e.Switches()[5])
			}
			if c == 64 || c == 120 {
				// The packet of the flit on the wire into switch 3 if
				// there is one (the purge then takes a flit off a link),
				// else whatever is oldest in the network.
				victim := uint64(0)
				if in := e.Switches()[3].In[0]; in.UpstreamInFlight() > 0 {
					victim = in.Flit(in.Buffered()).PacketID
				}
				if hdrs, _ := e.InFlightHeaders(); victim == 0 && len(hdrs) > 0 {
					victim = hdrs[0].PacketID
				}
				if _, ok := l.KillPacket(victim); ok {
					purged++
				}
			}
			if c%17 == 0 {
				src := rng.Intn(n - 1)
				for _, ld := range loads {
					inject(ld, src, 4)
				}
			}
			e.Step()
			l.check(t)
			stream = append(stream, e.StateHash())
			if c%5 == 0 {
				if err := e.CheckInvariants(); err != nil {
					t.Fatalf("cycle %d: %v", c, err)
				}
				snap := e.Snapshot()
				snaps.Write(snap)
				fresh, _ := engine.ChainScenario(cfg, n)
				if err := fresh.Restore(snap); err != nil {
					t.Fatalf("cycle %d: restore: %v", c, err)
				}
				if fresh.StateHash() != e.StateHash() || !bytes.Equal(fresh.Snapshot(), snap) {
					t.Fatalf("cycle %d: snapshot did not round-trip", c)
				}
			}
		}
		if loads[0].replies < 40 || purged == 0 {
			t.Fatalf("hooks injected %d packets (want 40), KillPacket purged %d: the stress did not exercise them", loads[0].replies, purged)
		}
		if e.Dropped() == 0 {
			t.Error("the killed switch dropped nothing — the stress did not exercise the sink path")
		}
		return e, stream, snaps
	}
	// Every run is also pinned by the digest of its StateHash stream and of
	// its snapshots, and by its final counters, as recorded from the kernel
	// that still kept a ring per link.
	var golden bytes.Buffer
	for depth := 1; depth <= 8; depth++ {
		// Named, as the golden's rows are, for the one-cycle links.
		name := fmt.Sprintf("delay1_depth%d", depth)
		t.Run(name, func(t *testing.T) {
			e, stream, snaps := run(t, engine.Config{BufferDepth: depth, Acquire: engine.AcquireAtomic})
			h := fnv.New64a()
			for _, v := range stream {
				binary.Write(h, binary.LittleEndian, v)
			}
			fmt.Fprintf(&golden, "%s active stream %016x snaps %016x counters %+v\n", name, h.Sum64(), snaps.Sum64(), e.Counters())
		})
	}
	path := filepath.Join("testdata", "stress_kill.golden")
	if *engine.UpdateGolden {
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

// TestCountersObserveScheduling: each phase's visits and skips add up to its
// elements in every cycle — links, switch input ports, ejecting endpoints
// and injecting endpoints — on the chain, grown between steps, and on a
// machine; and once the traffic has drained, skipping dominates.
func TestCountersObserveScheduling(t *testing.T) {
	run := func(t *testing.T, e *engine.Engine, before func(c int)) {
		var links, ports, eps int64
		for c := 0; c < 400; c++ {
			before(c)
			for _, n := range e.Nodes() {
				for _, in := range n.In {
					if in.UpstreamOut() != nil {
						links++
					}
					if n.Kind == engine.KindSwitch {
						ports++
					}
				}
			}
			eps += int64(len(e.Endpoints()))
			e.Step()
		}
		if !e.Quiescent() {
			t.Fatal("the traffic did not drain")
		}
		c := e.Counters()
		for _, ph := range []struct {
			name                   string
			visits, skipped, elems int64
		}{
			{"landing (links)", c.LinkVisits, c.LinkVisitsSkipped, links},
			{"allocation (switch input ports)", c.SwitchPortVisits, c.SwitchPortVisitsSkipped, ports},
			{"ejection (endpoints)", c.EjectVisits, c.EjectVisitsSkipped, eps},
			{"injection (endpoints)", c.InjectVisits, c.InjectVisitsSkipped, eps},
		} {
			if ph.visits+ph.skipped != ph.elems || ph.visits == 0 {
				t.Errorf("%s: %d visits + %d skipped, want %d elements × cycles", ph.name, ph.visits, ph.skipped, ph.elems)
			}
		}
		if c.Cycles != 400 || c.SkipRatio() < 0.5 || c.RouteStatesAllocated == 0 {
			t.Errorf("counters %+v (skip ratio %.2f)", c, c.SkipRatio())
		}
	}
	t.Run("chain", func(t *testing.T) {
		e, eps := engine.ChainScenario(engine.DefaultConfig(), 4)
		run(t, e, func(c int) {
			if c == 5 {
				growChain(e, eps, 4)
			}
		})
	})
	t.Run("machine", func(t *testing.T) {
		shape := geom.MustShape(4, 4)
		m, err := core.NewMachine(core.Config{Shape: shape})
		if err != nil {
			t.Fatal(err)
		}
		run(t, m.Engine(), func(c int) {
			if c < 40 && c%4 == 0 {
				if _, err := m.Send(shape.CoordOf(c/4), shape.CoordOf(15-c/4), 8); err != nil {
					t.Fatal(err)
				}
			}
			if c == 20 {
				if _, _, err := m.Broadcast(geom.Coord{1, 2}, 4); err != nil {
					t.Fatal(err)
				}
			}
		})
	})
}
