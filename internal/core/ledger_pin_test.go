package core

import (
	"fmt"
	"math/rand"
	"testing"

	"sr2201/internal/geom"
)

// TestSeededLoadStateHashPins pins the final StateHash of three seeded
// open-loop runs. The values are the serial rows of the serial-vs-sharded
// ledger as it stood before spatial sharding was folded out of the kernel
// (PR 13 deleted that ledger with the sharding; this table is where its
// serial hashes live on), so they prove the refold, and every kernel change
// since, hash-preserving by numbers that predate it.
func TestSeededLoadStateHashPins(t *testing.T) {
	cases := []struct {
		name   string
		shape  geom.Shape
		rate   float64
		cycles int64
		want   string
		long   bool
	}{
		{name: "xbar2d-256", shape: geom.MustShape(16, 16), rate: 0.02, cycles: 375, want: "d2d6d8ec35f73cb9"},
		{name: "machine3d-512", shape: geom.MustShape(8, 8, 8), rate: 0.005, cycles: 100, want: "9e89d67610fe0a6d"},
		{name: "machine3d-2048", shape: geom.MustShape(8, 16, 16), rate: 0.002, cycles: 50, want: "bce2f4084305f6e4", long: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("2048-PE machine skipped in -short")
			}
			m := mustMachine(t, Config{Shape: tc.shape})
			rng := rand.New(rand.NewSource(17))
			size := tc.shape.Size()
			for cyc := int64(0); cyc < tc.cycles; cyc++ {
				tc.shape.Enumerate(func(s geom.Coord) bool {
					if rng.Float64() < tc.rate {
						if d := tc.shape.CoordOf(rng.Intn(size)); d != s {
							m.SendUnchecked(s, d, 8)
						}
					}
					return true
				})
				m.Step()
			}
			if m.Cycle() != tc.cycles {
				t.Errorf("ran %d cycles, want %d", m.Cycle(), tc.cycles)
			}
			if got := fmt.Sprintf("%016x", m.Engine().StateHash()); got != tc.want {
				t.Errorf("final StateHash %s, want %s", got, tc.want)
			}
		})
	}
}
