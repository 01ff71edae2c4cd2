package engine

import (
	"fmt"
	"strings"
	"testing"

	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// scenario is a deterministic build: the same function must produce the
// same engine (topology + injected workload) every call, so a snapshot from
// one instance restores into a fresh instance.
type scenario struct {
	name  string
	build func() *Engine
	// horizon bounds the reference run; every scenario drains well within it.
	horizon int
	// preStep, if non-nil, runs before each Step with the cycle index — the
	// hook a dynamic-fault schedule would use. It must be deterministic.
	preStep func(e *Engine, cycle int)
}

func snapshotScenarios() []scenario {
	chain := func(cfg Config) func() *Engine {
		return func() *Engine { e, _ := chainScenario(cfg, 8); return e }
	}
	fanTransform := func() *Engine {
		// Broadcast-style fan-out with an RC-rewriting transform, long
		// packets against shallow buffers, so snapshots land while headers
		// sit at transforming switches in every grant state.
		e := New(Config{BufferDepth: 2, LinkDelay: 1, Acquire: AcquireAtomic})
		src := e.AddEndpoint("SRC", nil)
		sinks := make([]*Node, 3)
		fan := func(n *Node, in int, h *flit.Header) (Decision, error) {
			if h.RC == flit.RCBroadcastRequest {
				return Decision{
					Outs:      []int{1, 2, 3},
					Transform: func(h *flit.Header) { h.RC = flit.RCBroadcast },
				}, nil
			}
			return Decision{Outs: []int{1 + int(h.Dst[0])%3}}, nil
		}
		sw := e.AddSwitch("FAN", 4, fan, nil)
		e.Connect(src, 0, sw, 0)
		for i := range sinks {
			sinks[i] = e.AddEndpoint(fmt.Sprintf("K%d", i), nil)
			e.Connect(sinks[i], 0, sw, 1+i)
		}
		for i := 0; i < 6; i++ {
			rc := flit.RCNormal
			if i%2 == 0 {
				rc = flit.RCBroadcastRequest
			}
			e.Inject(src, flit.NewPacket(&flit.Header{PacketID: uint64(100 + i), RC: rc, Dst: geom.Coord{i}}, 5))
		}
		return e
	}
	return []scenario{
		{name: "chain/default", build: chain(DefaultConfig()), horizon: 400},
		{name: "chain/incremental_delay3", build: chain(Config{BufferDepth: 4, LinkDelay: 3, Acquire: AcquireIncremental}), horizon: 900},
		{name: "chain/fullscan", build: chain(Config{BufferDepth: 2, LinkDelay: 1, DisableActiveSet: true}), horizon: 400},
		{name: "chain/ejectrate1", build: chain(Config{BufferDepth: 8, LinkDelay: 2, EjectRate: 1}), horizon: 900},
		{name: "fanout/transform", build: fanTransform, horizon: 300},
		{name: "phys/shared", build: physSharedEngine, horizon: 500},
		{name: "chain/killswitch", build: chain(DefaultConfig()), horizon: 600,
			preStep: func(e *Engine, cycle int) {
				if cycle == 9 {
					e.KillSwitch(e.Switches()[4])
				}
			}},
	}
}

// physSharedEngine is the shared-wire build: two outputs of one switch
// multiplexed onto a single physical channel — the engine-layer mechanism
// virtual channels are made of. Named so both the snapshot scenarios and
// the decode fuzzer can produce snapshots that carry a phys-channel section.
func physSharedEngine() *Engine {
	e := New(Config{BufferDepth: 4, LinkDelay: 1})
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
	e.SharePhysical(sw.Out[2], sw.Out[3])
	for i := 0; i < 4; i++ {
		e.Inject(s0, mkPacket(uint64(10+i), geom.Coord{}, 9))
		e.Inject(s1, mkPacket(uint64(20+i), geom.Coord{}, 9))
	}
	return e
}

// runRecording drives a scenario instance for up to `cycles` steps and
// returns the per-cycle StateHash stream (hash after each Step).
func runRecording(s scenario, e *Engine, cycles int) []uint64 {
	out := make([]uint64, 0, cycles)
	for i := 0; i < cycles; i++ {
		if s.preStep != nil {
			s.preStep(e, i)
		}
		e.Step()
		out = append(out, e.StateHash())
	}
	return out
}

// TestRestoreEquivalence is the load-bearing contract of the checkpoint
// subsystem: for every scenario and every snapshot cycle k, restoring the
// snapshot into a freshly built engine and running to the horizon produces
// the per-cycle StateHash stream — and the Counters — of the uninterrupted
// run, exactly.
func TestRestoreEquivalence(t *testing.T) {
	for _, s := range snapshotScenarios() {
		t.Run(s.name, func(t *testing.T) {
			ref := s.build()
			refStream := runRecording(s, ref, s.horizon)
			if !ref.Quiescent() {
				t.Fatalf("scenario did not drain within %d cycles", s.horizon)
			}
			refCtr := ref.Counters()
			ks := []int{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}
			for _, k := range ks {
				if k >= s.horizon {
					break
				}
				// Run a fresh instance to cycle k and snapshot it.
				src := s.build()
				_ = runRecording(s, src, k)
				snap := src.Snapshot()

				dst := s.build()
				if err := dst.Restore(snap); err != nil {
					t.Fatalf("k=%d: restore: %v", k, err)
				}
				if got, want := dst.StateHash(), src.StateHash(); got != want {
					t.Fatalf("k=%d: restored hash %#x != source hash %#x", k, got, want)
				}
				for i := k; i < s.horizon; i++ {
					if s.preStep != nil {
						s.preStep(dst, i)
					}
					dst.Step()
					if got := dst.StateHash(); got != refStream[i] {
						t.Fatalf("k=%d: hash diverged at cycle %d: restored=%#x uninterrupted=%#x", k, i+1, got, refStream[i])
					}
				}
				if got := dst.Counters(); got != refCtr {
					t.Fatalf("k=%d: counters diverged:\nrestored:      %+v\nuninterrupted: %+v", k, got, refCtr)
				}
				if err := dst.CheckInvariants(); err != nil {
					t.Fatalf("k=%d: invariants after restored run: %v", k, err)
				}
			}
		})
	}
}

// TestSnapshotDoesNotPerturb: taking a snapshot must not change the source
// engine's behavior (transform pre-application clones, it must not mutate).
func TestSnapshotDoesNotPerturb(t *testing.T) {
	for _, s := range snapshotScenarios() {
		t.Run(s.name, func(t *testing.T) {
			a := s.build()
			b := s.build()
			for i := 0; i < s.horizon; i++ {
				if s.preStep != nil {
					s.preStep(a, i)
					s.preStep(b, i)
				}
				a.Step()
				_ = a.Snapshot() // every cycle, aggressively
				b.Step()
				if a.StateHash() != b.StateHash() {
					t.Fatalf("snapshotting perturbed the run at cycle %d", i+1)
				}
				if a.Quiescent() {
					break
				}
			}
		})
	}
}

// TestRestoreIdempotent: Snapshot(Restore(snap)) == snap, i.e. encode is a
// pure function of the restored state.
func TestRestoreIdempotent(t *testing.T) {
	s := snapshotScenarios()[0]
	src := s.build()
	for i := 0; i < 17; i++ {
		src.Step()
	}
	snap := src.Snapshot()
	dst := s.build()
	if err := dst.Restore(snap); err != nil {
		t.Fatal(err)
	}
	snap2 := dst.Snapshot()
	if string(snap) != string(snap2) {
		t.Fatal("re-encoding a restored engine changed the snapshot bytes")
	}
}

// TestRestoreIntoUsedEngine: restore must fully displace previous traffic.
func TestRestoreIntoUsedEngine(t *testing.T) {
	s := snapshotScenarios()[0]
	src := s.build()
	for i := 0; i < 25; i++ {
		src.Step()
	}
	snap := src.Snapshot()
	dst := s.build()
	for i := 0; i < 80; i++ { // drive the target somewhere else entirely
		dst.Step()
	}
	if err := dst.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if dst.StateHash() != src.StateHash() {
		t.Fatal("restore into a used engine did not reproduce the source state")
	}
}

func TestRestoreRejectsMismatchedTopology(t *testing.T) {
	e1, _ := chainScenario(DefaultConfig(), 8)
	snap := e1.Snapshot()

	e2, _ := chainScenario(DefaultConfig(), 6) // different size
	if err := e2.Restore(snap); err == nil || !strings.Contains(err.Error(), "topology fingerprint") {
		t.Fatalf("err = %v, want topology fingerprint mismatch", err)
	}

	cfg := DefaultConfig()
	cfg.BufferDepth = 4 // different kernel config
	e3, _ := chainScenario(cfg, 8)
	if err := e3.Restore(snap); err == nil || !strings.Contains(err.Error(), "topology fingerprint") {
		t.Fatalf("err = %v, want topology fingerprint mismatch", err)
	}

	cfg = DefaultConfig()
	cfg.DisableActiveSet = true // same topology hash inputs except mode flag
	e4, _ := chainScenario(cfg, 8)
	if err := e4.Restore(snap); err == nil || !strings.Contains(err.Error(), "DisableActiveSet") {
		t.Fatalf("err = %v, want DisableActiveSet mismatch", err)
	}
}

// FuzzSnapshotDecode holds Restore to the garbage-tolerance contract:
// arbitrary bytes — truncations, bit flips, adversarial section tables —
// never panic, and every rejection is an error naming where decoding failed
// (container header, crc, or a section by name). The checked-in corpus
// under testdata/fuzz pins regressions.
func FuzzSnapshotDecode(f *testing.F) {
	build := func() *Engine { e, _ := chainScenario(DefaultConfig(), 4); return e }
	valid := func(steps int) []byte {
		e := build()
		for i := 0; i < steps; i++ {
			e.Step()
		}
		return e.Snapshot()
	}
	f.Add([]byte{})
	f.Add([]byte("MDXSNAP\n"))
	f.Add(valid(0))
	f.Add(valid(7))
	f.Add(valid(40))
	snap := valid(7)
	f.Add(snap[:len(snap)/2])
	flipped := append([]byte{}, snap...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	// Snapshots of the shared-wire engine carry a phys-channel section the
	// fuzz target's chain topology does not have: restored whole they hit
	// the fingerprint rejection; cut or corrupted they exercise truncation
	// and crc failure inside the VC-bearing sections.
	vcValid := func(steps int) []byte {
		e := physSharedEngine()
		for i := 0; i < steps; i++ {
			e.Step()
		}
		return e.Snapshot()
	}
	vsnap := vcValid(9)
	f.Add(vsnap)
	f.Add(vsnap[:len(vsnap)/2])
	f.Add(vsnap[:len(vsnap)-7])
	f.Add(vsnap[:len(vsnap)-1])
	vflip := append([]byte{}, vsnap...)
	vflip[len(vflip)-9] ^= 0x10
	f.Add(vflip)
	f.Fuzz(func(t *testing.T, data []byte) {
		e := build()
		err := e.Restore(data)
		if err == nil {
			return
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "checkpoint: ") {
			t.Fatalf("rejection %q does not carry the checkpoint prefix", msg)
		}
		if !strings.Contains(msg, "section") && !strings.Contains(msg, "header") && !strings.Contains(msg, "crc") {
			t.Fatalf("rejection %q names neither a section nor the container framing", msg)
		}
	})
}
