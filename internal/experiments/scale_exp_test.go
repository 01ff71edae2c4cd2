package experiments

import (
	"fmt"
	"testing"

	"sr2201/internal/geom"
)

// TestE14ScenarioStreamPins pins the per-cycle StateHash stream of E14's
// fault-and-recovery scenario. The digests were recorded before spatial
// sharding was folded out of the kernel (when the same stream was asserted
// identical at 1-4 shards), so any kernel change that moves a single cycle's
// state — phase order, credit visibility, arbitration — fails here.
func TestE14ScenarioStreamPins(t *testing.T) {
	for _, tc := range []struct {
		shape  geom.Shape
		cycles int
		digest string
	}{
		{geom.MustShape(4, 4, 4), 90, "c45c07580273b4ee"},
		{geom.MustShape(3, 3, 3), 100, "2746d66d6342be7e"},
	} {
		stream, err := e14Scenario(tc.shape)
		if err != nil {
			t.Fatal(err)
		}
		if len(stream) != tc.cycles {
			t.Errorf("%v: drained in %d cycles, want %d", tc.shape, len(stream), tc.cycles)
		}
		if got := fmt.Sprintf("%016x", streamDigest(stream)); got != tc.digest {
			t.Errorf("%v: stream digest %s, want %s", tc.shape, got, tc.digest)
		}
	}
}
