package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sr2201/internal/checkpoint"
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
	return []scenario{
		{name: "chain/default", build: chain(DefaultConfig()), horizon: 400},
		{name: "chain/incremental_delay3", build: chain(Config{BufferDepth: 4, LinkDelay: 3, Acquire: AcquireIncremental}), horizon: 900},
		{name: "chain/fullscan", build: chain(Config{BufferDepth: 2, LinkDelay: 1, DisableActiveSet: true}), horizon: 400},
		{name: "chain/ejectrate1", build: chain(Config{BufferDepth: 8, LinkDelay: 2, EjectRate: 1}), horizon: 900},
		{name: "fanout/transform", build: fanRewriteEngine, horizon: 300},
		{name: "phys/shared", build: physSharedEngine, horizon: 500},
		{name: "chain/killswitch", build: chain(DefaultConfig()), horizon: 600,
			preStep: func(e *Engine, cycle int) {
				if cycle == 9 {
					e.KillSwitch(e.Switches()[4])
				}
			}},
	}
}

// fanRewriteEngine is a broadcast-style fan-out with an RC rewrite: two
// sources feed one switch that fans requests out to three sinks, long
// packets against shallow buffers, so snapshots land while headers sit at
// the rewriting switch in every grant state — a request waiting for the fan
// the other source holds among them.
func fanRewriteEngine() *Engine {
	e := New(Config{BufferDepth: 2, LinkDelay: 1, Acquire: AcquireAtomic})
	srcs := []*Node{e.AddEndpoint("SRC", nil), e.AddEndpoint("SRC1", nil)}
	fan := func(n *Node, in int, h *flit.Header) (Decision, error) {
		if h.RC == flit.RCBroadcastRequest {
			return Decision{Outs: []int{1, 2, 3}, Rewrite: flit.SetRC(flit.RCBroadcast)}, nil
		}
		return Decision{Outs: []int{1 + int(h.Dst[0])%3}}, nil
	}
	sw := e.AddSwitch("FAN", 5, fan, nil)
	e.Connect(srcs[0], 0, sw, 0)
	e.Connect(srcs[1], 0, sw, 4)
	for i := 0; i < 3; i++ {
		e.Connect(e.AddEndpoint(fmt.Sprintf("K%d", i), nil), 0, sw, 1+i)
	}
	for i := 0; i < 6; i++ {
		rc := flit.RCNormal
		if i%2 == 0 {
			rc = flit.RCBroadcastRequest
		}
		for s, src := range srcs {
			e.Inject(src, flit.NewPacket(&flit.Header{PacketID: uint64(100*(s+1) + i), RC: rc, Dst: geom.Coord{i}}, 5))
		}
	}
	return e
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
// engine's behavior (rewrite pre-application clones, it must not mutate).
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
// pure function of the restored state — for every scenario at every cycle,
// so pending rewrites (restored from their recorded output) are covered in
// every grant state.
func TestRestoreIdempotent(t *testing.T) {
	for _, s := range snapshotScenarios() {
		t.Run(s.name, func(t *testing.T) {
			src := s.build()
			for k := 0; k <= s.horizon; k++ {
				snap := src.Snapshot()
				dst := s.build()
				if err := dst.Restore(snap); err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if string(dst.Snapshot()) != string(snap) {
					t.Fatalf("k=%d: re-encoding a restored engine changed the snapshot bytes", k)
				}
				if s.preStep != nil {
					s.preStep(src, k)
				}
				src.Step()
			}
		})
	}
}

// TestRestoreRefusesUnproducibleRewrite forges the recorded output of a
// pending rewrite in a field no rewrite writes (the packet ID), or writes
// otherwise (a detour count two higher): restore must refuse the snapshot,
// naming the port, rather than forward the forged header.
func TestRestoreRefusesUnproducibleRewrite(t *testing.T) {
	// Snapshot while a request waits at the fan switch, its header still
	// buffered: the recorded output is what restore would forward.
	src := fanRewriteEngine()
	var in *InPort
	for in == nil {
		src.Step()
		for _, p := range src.Switches()[0].In {
			if p.route != nil && p.route.rewrite != 0 && p.route.nGranted == 0 {
				in = p
			}
		}
	}
	snap := src.Snapshot()
	if err := fanRewriteEngine().Restore(snap); err != nil {
		t.Fatal(err)
	}
	// The route state encodes its header, a true flag, then the output.
	recorded := func(out flit.Header) []byte {
		var enc checkpoint.Encoder
		flit.EncodeHeader(&enc, in.route.header)
		enc.Bool(true)
		flit.EncodeHeader(&enc, &out)
		return enc.Bytes()
	}
	out := *in.route.header
	in.route.rewrite.Apply(&out)
	want := recorded(out)
	if bytes.Count(snap, want) != 1 {
		t.Fatal("the pending rewrite's record is not in the snapshot exactly once")
	}
	for _, forge := range []func(h *flit.Header){
		func(h *flit.Header) { h.PacketID++ },
		func(h *flit.Header) { h.DetourHops += 2 },
	} {
		forged := out
		forge(&forged)
		bad := recorded(forged)
		if len(bad) != len(want) {
			t.Fatal("the forged record changes the encoding's length")
		}
		data := bytes.Replace(snap, want, bad, 1)
		body := data[:len(data)-4]
		binary.BigEndian.PutUint32(data[len(body):], crc32.ChecksumIEEE(body))
		err := fanRewriteEngine().Restore(data)
		port := fmt.Sprintf("FAN.%d", in.idx)
		if err == nil || !strings.Contains(err.Error(), `checkpoint: section "engine.nodes"`) || !strings.Contains(err.Error(), port) {
			t.Fatalf("forged output %+v: restore returned %v, want an engine.nodes refusal naming %s", forged, err, port)
		}
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
// (container header, crc, or a section by name). Every input is restored
// into the chain engine, into the fan-out engine whose snapshots carry
// pending rewrites, and into the three-cycle-link chain whose snapshots
// carry flits of several ages in flight; a restore that succeeds must
// re-encode to the same bytes. The checked-in corpus under testdata/fuzz
// pins regressions.
func FuzzSnapshotDecode(f *testing.F) {
	chain := func() *Engine { e, _ := chainScenario(DefaultConfig(), 4); return e }
	delay3 := func() *Engine {
		e, _ := chainScenario(Config{BufferDepth: 4, LinkDelay: 3, Acquire: AcquireAtomic}, 8)
		return e
	}
	valid := func(build func() *Engine, steps int) []byte {
		e := build()
		for i := 0; i < steps; i++ {
			e.Step()
		}
		return e.Snapshot()
	}
	f.Add([]byte{})
	f.Add([]byte("MDXSNAP\n"))
	f.Add(valid(chain, 0))
	f.Add(valid(chain, 7))
	f.Add(valid(chain, 40))
	snap := valid(chain, 7)
	f.Add(snap[:len(snap)/2])
	flipped := append([]byte{}, snap...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	// Snapshots of the shared-wire engine carry a phys-channel section the
	// other topologies do not have: restored whole they hit the fingerprint
	// rejection; cut or corrupted they exercise truncation and crc failure
	// inside the VC-bearing sections. At cycles 3, 20 and 40 a request waits
	// at the fan-out engine's switch, and its snapshot records the pending
	// rewrite as the output header, which restore re-derives.
	// The delay-3 fixture, and the same run right after a purge took one
	// packet's flit out from among flits still in flight on its link.
	golden, err := os.ReadFile(filepath.Join("testdata", "delay3.snap"))
	if err != nil {
		f.Fatal(err)
	}
	purged := delay3Engine()
	victim := uint64(0)
	for _, l := range purged.links {
		for in, i := l.to, l.to.n; i+1 < in.n+in.fly && victim == 0; i++ {
			if in.at(i).PacketID != in.at(i+1).PacketID {
				victim = in.at(i).PacketID
			}
		}
	}
	if _, ok := purged.KillPacket(victim); !ok {
		f.Fatal("the delay-3 fixture has no link carrying flits of two packets")
	}
	if err := delay3().Restore(purged.Snapshot()); err != nil {
		f.Fatal(err)
	}
	for _, s := range [][]byte{valid(physSharedEngine, 9), valid(fanRewriteEngine, 3), valid(fanRewriteEngine, 20), valid(fanRewriteEngine, 40), golden, purged.Snapshot()} {
		f.Add(s)
		f.Add(s[:len(s)/2])
		f.Add(s[:len(s)-7])
		f.Add(s[:len(s)-1])
		flipped := append([]byte{}, s...)
		flipped[len(flipped)-9] ^= 0x10
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, build := range []func() *Engine{chain, fanRewriteEngine, delay3} {
			e := build()
			err := e.Restore(data)
			if err == nil {
				if !bytes.Equal(e.Snapshot(), data) {
					t.Fatal("a restored snapshot re-encodes to different bytes")
				}
				continue
			}
			msg := err.Error()
			if !strings.HasPrefix(msg, "checkpoint: ") {
				t.Fatalf("rejection %q does not carry the checkpoint prefix", msg)
			}
			if !strings.Contains(msg, "section") && !strings.Contains(msg, "header") && !strings.Contains(msg, "crc") {
				t.Fatalf("rejection %q names neither a section nor the container framing", msg)
			}
		}
	})
}
