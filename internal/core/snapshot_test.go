package core_test

import (
	"fmt"
	"strings"
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
)

// The machine-level restore-equivalence suite. Each scenario stands in for
// one experiment series: E (evaluation configs under Bernoulli traffic), A
// (ablations: naive broadcast, compiled tables), plus a statically-faulted
// machine. The dynamic-fault (F series) counterpart
// lives in internal/inject. The oracle is the per-cycle engine StateHash
// stream plus a rendered final report: snapshot at cycle k, restore into a
// fresh machine, run to the horizon, and both must match the uninterrupted
// run exactly, for several k.

// rng is a deterministic pseudo-random stream whose full state is four
// words, so the test workload can save it beside a machine snapshot and
// resume it mid-stream — unlike math/rand, whose generator state is
// unexported. The generator is xoshiro256**, seeded through SplitMix64.
type rng struct {
	s [4]uint64
}

// newRNG returns a generator seeded deterministically from seed.
func newRNG(seed int64) *rng {
	r := &rng{}
	sm := uint64(seed)
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *rng) Uint64() uint64 {
	res := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return res
}

// Intn returns a pseudo-random int in [0, n), n > 0.
func (r *rng) Intn(n int) int { return int(int64(r.Uint64()>>1) % int64(n)) }

// Float64 returns a pseudo-random float in [0, 1).
func (r *rng) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

func TestRNGStreams(t *testing.T) {
	a, b := newRNG(7), newRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if newRNG(1).Uint64() == newRNG(2).Uint64() {
		t.Fatal("different seeds produced identical first draw")
	}
	// Mid-stream save: a copy of the state continues the exact stream.
	r := newRNG(99)
	for i := 0; i < 37; i++ {
		r.Uint64()
	}
	r2 := *r
	for i := 0; i < 100; i++ {
		if r.Intn(1000) != r2.Intn(1000) {
			t.Fatalf("saved stream diverged at draw %d", i)
		}
	}
	// Basic range sanity.
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

// workload drives an open-loop Bernoulli pattern from a saveable RNG so the
// traffic source itself resumes with the machine.
type workload struct {
	rng   *rng
	pes   []geom.Coord
	rate  float64
	bcast float64
}

func newWorkload(m *core.Machine, seed int64, rate, bcast float64) *workload {
	w := &workload{rng: newRNG(seed), rate: rate, bcast: bcast}
	m.Shape().Enumerate(func(c geom.Coord) bool {
		w.pes = append(w.pes, c)
		return true
	})
	return w
}

// step injects one cycle's traffic and advances the machine. Sends to dead
// or unreachable destinations fail; the failure is deterministic and the
// RNG draw happened regardless, so the stream replays identically.
func (w *workload) step(m *core.Machine) {
	for _, src := range w.pes {
		if w.rate > 0 && w.rng.Float64() < w.rate {
			dst := w.pes[w.rng.Intn(len(w.pes))]
			if dst != src {
				m.Send(src, dst, 0)
			}
		}
		if w.bcast > 0 && w.rng.Float64() < w.bcast {
			m.Broadcast(src, 0)
		}
	}
	m.Step()
}

// saved is a machine snapshot and the workload RNG's state beside it.
type saved struct {
	machine []byte
	rng     rng
}

func snap(m *core.Machine, w *workload) saved { return saved{m.Snapshot(), *w.rng} }

// unsnap restores a saved pair into a fresh machine + workload pair.
func unsnap(t *testing.T, s saved, mk func() *core.Machine, rate, bcast float64) (*core.Machine, *workload) {
	t.Helper()
	m := mk()
	if err := m.Restore(s.machine); err != nil {
		t.Fatalf("machine restore: %v", err)
	}
	w := newWorkload(m, 0, rate, bcast)
	r := s.rng
	w.rng = &r
	return m, w
}

// report renders everything a run reports: the delivery log and both
// latency accumulators. Byte-equality of this string is the "final report
// identical" acceptance check.
func report(m *core.Machine) string {
	var b strings.Builder
	for _, d := range m.Deliveries() {
		fmt.Fprintf(&b, "%d %v %v b=%v d=%v c=%d l=%d\n",
			d.PacketID, d.Src, d.At, d.Broadcast, d.Detoured, d.Cycle, d.Latency)
	}
	lat, blat := m.Latency(), m.BroadcastLatency()
	fmt.Fprintf(&b, "lat n=%d mean=%.4f max=%d p95=%d\n",
		lat.Count(), lat.Mean(), lat.Max(), lat.Percentile(95))
	fmt.Fprintf(&b, "bcast n=%d mean=%.4f\n", blat.Count(), blat.Mean())
	fmt.Fprintf(&b, "dropped=%d cycle=%d\n", m.Dropped(), m.Cycle())
	return b.String()
}

func TestMachineRestoreEquivalence(t *testing.T) {
	scenarios := []struct {
		name  string
		mk    func(t *testing.T) *core.Machine
		rate  float64
		bcast float64
	}{
		{"E/sxb-2d", func(t *testing.T) *core.Machine {
			return mkMachine(t, core.Config{Shape: geom.MustShape(4, 4)})
		}, 0.25, 0},
		{"E/sxb-3d", func(t *testing.T) *core.Machine {
			return mkMachine(t, core.Config{Shape: geom.MustShape(3, 3, 3)})
		}, 0.2, 0},
		{"E/bcast", func(t *testing.T) *core.Machine {
			return mkMachine(t, core.Config{Shape: geom.MustShape(4, 4)})
		}, 0.1, 0.03},
		{"A/naive-bcast", func(t *testing.T) *core.Machine {
			return mkMachine(t, core.Config{Shape: geom.MustShape(4, 4), NaiveBroadcast: true})
		}, 0.1, 0.03},
		{"A/tables", func(t *testing.T) *core.Machine {
			m := mkMachine(t, core.Config{Shape: geom.MustShape(4, 4)})
			if err := m.UseCompiledTables(); err != nil {
				t.Fatalf("tables: %v", err)
			}
			return m
		}, 0.25, 0},
		{"E/static-fault", func(t *testing.T) *core.Machine {
			m := mkMachine(t, core.Config{Shape: geom.MustShape(4, 4)})
			if err := m.AddFault(fault.RouterFault(geom.Coord{2, 1})); err != nil {
				t.Fatalf("fault: %v", err)
			}
			return m
		}, 0.25, 0},
	}

	const horizon = 160
	const seed = 42
	ks := []int64{0, 1, 13, 55, 144}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			// Reference run: record the hash stream, final report, and a
			// snapshot at each k.
			m := sc.mk(t)
			w := newWorkload(m, seed, sc.rate, sc.bcast)
			snaps := map[int64]saved{}
			hashes := make([]uint64, horizon)
			for c := int64(0); c < horizon; c++ {
				for _, k := range ks {
					if k == c {
						snaps[k] = snap(m, w)
					}
				}
				w.step(m)
				hashes[c] = m.Engine().StateHash()
			}
			want := report(m)

			for _, k := range ks {
				t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
					m2, w2 := unsnap(t, snaps[k], func() *core.Machine { return sc.mk(t) }, sc.rate, sc.bcast)
					if got := m2.Cycle(); got != k {
						t.Fatalf("restored at cycle %d, want %d", got, k)
					}
					for c := k; c < horizon; c++ {
						w2.step(m2)
						if h := m2.Engine().StateHash(); h != hashes[c] {
							t.Fatalf("hash diverged at cycle %d: %016x != %016x", c, h, hashes[c])
						}
					}
					if got := report(m2); got != want {
						t.Errorf("final report differs\n--- resumed\n%s--- uninterrupted\n%s", got, want)
					}
					if err := m2.Engine().CheckInvariants(); err != nil {
						t.Errorf("invariants after resumed run: %v", err)
					}
				})
			}
		})
	}
}

func mkMachine(t *testing.T, cfg core.Config) *core.Machine {
	t.Helper()
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

// TestMachineRestoreRejectsMismatchedConfig pins the fingerprint check: a
// snapshot must not restore into a machine built from a different Config.
func TestMachineRestoreRejectsMismatchedConfig(t *testing.T) {
	m := mkMachine(t, core.Config{Shape: geom.MustShape(4, 4)})
	data := m.Snapshot()

	for _, alt := range []core.Config{
		{Shape: geom.MustShape(4, 5)},
		{Shape: geom.MustShape(4, 4), NaiveBroadcast: true},
		{Shape: geom.MustShape(4, 4), PacketSize: 9},
	} {
		m2 := mkMachine(t, alt)
		if err := m2.Restore(data); err == nil {
			t.Errorf("restore into %+v machine unexpectedly succeeded", alt)
		} else if !strings.Contains(err.Error(), "fingerprint") && !strings.Contains(err.Error(), "checkpoint") {
			t.Errorf("unhelpful mismatch error: %v", err)
		}
	}
}

// TestMachineSnapshotRoundtripBytes pins snapshot determinism: snapshotting
// the restored machine reproduces the original container byte for byte.
func TestMachineSnapshotRoundtripBytes(t *testing.T) {
	m := mkMachine(t, core.Config{Shape: geom.MustShape(4, 4)})
	w := newWorkload(m, 7, 0.3, 0.02)
	for i := 0; i < 40; i++ {
		w.step(m)
	}
	data := m.Snapshot()
	m2 := mkMachine(t, core.Config{Shape: geom.MustShape(4, 4)})
	if err := m2.Restore(data); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if again := m2.Snapshot(); string(again) != string(data) {
		t.Fatalf("re-snapshot differs from original (%d vs %d bytes)", len(again), len(data))
	}
}
