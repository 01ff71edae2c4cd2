package experiments

// Golden determinism tests: every deadlock-scenario experiment's rendered
// report is digested with FNV-1a and must be identical across repeated runs
// and across sweep parallelism levels. The engine-level per-cycle state-hash
// tests live in internal/engine; these close the loop end to end — if any
// layer (engine scheduling, sweep sharding, report assembly) picks up
// schedule-dependent behavior, the digests diverge.

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"sr2201/internal/geom"
	"sr2201/internal/sweep"
	"sr2201/internal/traffic"
)

func reportDigest(t *testing.T, id string, opt Options) uint64 {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	r, err := e.Run(opt)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	h := fnv.New64a()
	h.Write([]byte(r.String()))
	return h.Sum64()
}

func TestGoldenDeterminismAcrossRepeats(t *testing.T) {
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "F1", "F2", "F3", "R1", "R2", "H1", "H2", "H3", "V2", "V3", "V4", "DR1", "DR2"} {
		id := id
		t.Run(id, func(t *testing.T) {
			opt := Options{Quick: true, Parallel: 1}
			first := reportDigest(t, id, opt)
			if again := reportDigest(t, id, opt); again != first {
				t.Errorf("%s: repeated run digest %#x != %#x", id, again, first)
			}
		})
	}
}

func TestGoldenDeterminismAcrossParallelism(t *testing.T) {
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "F1", "F2", "F3", "R1", "R2", "H1", "H2", "H3", "V2", "V3", "V4", "DR1", "DR2"} {
		id := id
		t.Run(id, func(t *testing.T) {
			serial := reportDigest(t, id, Options{Quick: true, Parallel: 1})
			for _, p := range []int{2, 4, 8} {
				if d := reportDigest(t, id, Options{Quick: true, Parallel: p}); d != serial {
					t.Errorf("%s: parallel=%d digest %#x != serial %#x", id, p, d, serial)
				}
			}
		})
	}
}

// TestShardRandSourcesIndependent pins the rand audit: every driver run
// builds its own rand source from its own seed, so two sweep shards given
// the same seed produce identical random streams (and identical results) no
// matter how many other shards run beside them.
func TestShardRandSourcesIndependent(t *testing.T) {
	runShard := func(seed int64) string {
		m, err := newCrossbar(geom.MustShape(4, 4))
		if err != nil {
			t.Error(err)
			return ""
		}
		res := drive(m, traffic.Uniform{Shape: m.Shape()}, 0.1, 8, 100, 300, seed)
		return res.String()
	}
	// Two shards with the same seed, surrounded by decoys with different
	// seeds, all racing on the pool.
	seeds := []int64{42, 7, 42, 99, 1, 42}
	results := sweep.Do(len(seeds), len(seeds), func(i int) string { return runShard(seeds[i]) })
	if results[0] == "" {
		t.Fatal("shard failed")
	}
	if results[0] != results[2] || results[0] != results[5] {
		t.Errorf("same-seed shards diverged:\n%s\n%s\n%s", results[0], results[2], results[5])
	}
	if results[0] == results[1] {
		t.Errorf("different-seed shards coincided: %s", results[0])
	}
	// And the stream itself: two rand sources from one seed stay in
	// lockstep even when drawn concurrently (no shared global source).
	draws := sweep.Do(2, 2, func(int) []float64 {
		rng := rand.New(rand.NewSource(1234))
		out := make([]float64, 1000)
		for i := range out {
			out[i] = rng.Float64()
		}
		return out
	})
	for i := range draws[0] {
		if draws[0][i] != draws[1][i] {
			t.Fatalf("draw %d diverged: %v vs %v", i, draws[0][i], draws[1][i])
		}
	}
}
