package core_test

import (
	"fmt"
	"strings"
	"testing"

	"sr2201/internal/checkpoint"
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

// workload drives an open-loop Bernoulli pattern from a serializable RNG so
// the traffic source itself can ride in the snapshot.
type workload struct {
	rng   *checkpoint.RNG
	pes   []geom.Coord
	rate  float64
	bcast float64
}

func newWorkload(m *core.Machine, seed int64, rate, bcast float64) *workload {
	w := &workload{rng: checkpoint.NewRNG(seed), rate: rate, bcast: bcast}
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

// snap packs machine and workload RNG into one container.
func snap(m *core.Machine, w *workload) []byte {
	wr := checkpoint.NewWriter()
	m.EncodeState(wr)
	w.rng.Encode(wr.Section("test.rng"))
	return wr.Bytes()
}

// unsnap restores a container into a fresh machine + workload pair.
func unsnap(t *testing.T, data []byte, mk func() *core.Machine, seed int64, rate, bcast float64) (*core.Machine, *workload) {
	t.Helper()
	m := mk()
	r, err := checkpoint.NewReader(data)
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	if err := m.DecodeState(r); err != nil {
		t.Fatalf("machine decode: %v", err)
	}
	w := newWorkload(m, 0, rate, bcast)
	d, err := r.Section("test.rng")
	if err != nil {
		t.Fatalf("rng section: %v", err)
	}
	w.rng = checkpoint.DecodeRNG(d)
	if err := d.Finish(); err != nil {
		t.Fatalf("rng decode: %v", err)
	}
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
			snaps := map[int64][]byte{}
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
					m2, w2 := unsnap(t, snaps[k], func() *core.Machine { return sc.mk(t) }, seed, sc.rate, sc.bcast)
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
