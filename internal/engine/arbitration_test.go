package engine_test

import (
	"fmt"
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/engine"
	"sr2201/internal/geom"
)

// TestPerSwitchArbitrationMatchesGlobalOrder runs loaded machines with
// serialized and naive broadcasts in flight — fan-outs that fail to get all
// their ports and reserve them — and checks every cycle that ordering each
// switch's requests on its own grants exactly what the old network-wide sort
// granted (engine.StepCheckingArbitration), and that the checked stepper is
// still Step (a twin machine's StateHash).
func TestPerSwitchArbitrationMatchesGlobalOrder(t *testing.T) {
	for _, tc := range []struct {
		shape geom.Shape
		naive bool
	}{
		{geom.MustShape(4, 4), false},
		{geom.MustShape(4, 4), true},
		{geom.MustShape(8, 8), false},
		{geom.MustShape(8, 8), true},
	} {
		t.Run(fmt.Sprintf("%v_naive=%v", tc.shape, tc.naive), func(t *testing.T) {
			build := func() *core.Machine {
				m, err := core.NewMachine(core.Config{Shape: tc.shape, NaiveBroadcast: tc.naive, Engine: engine.Config{BufferDepth: 2, Acquire: engine.AcquireAtomic}})
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			checked, plain := build(), build()
			n := tc.shape.Size()
			load := func(m *core.Machine, cycle int) {
				// Three unicasts a cycle for a while, and a broadcast every 8.
				if cycle >= 160 {
					return
				}
				for k := 0; k < 3; k++ {
					src := (cycle*7 + k*11) % n
					dst := (src + 1 + (cycle*5+k*3)%(n-1)) % n
					if _, err := m.Send(tc.shape.CoordOf(src), tc.shape.CoordOf(dst), 6); err != nil {
						t.Fatal(err)
					}
				}
				if cycle%8 == 0 {
					if _, _, err := m.Broadcast(tc.shape.CoordOf((cycle/8*5)%n), 6); err != nil {
						t.Fatal(err)
					}
				}
			}
			var st engine.ArbitrationStats
			for cycle := 0; cycle < 600; cycle++ {
				load(checked, cycle)
				load(plain, cycle)
				if err := checked.Engine().StepCheckingArbitration(&st); err != nil {
					t.Fatal(err)
				}
				plain.Step()
				if a, b := checked.Engine().StateHash(), plain.Engine().StateHash(); a != b {
					t.Fatalf("cycle %d: checked stepper %016x, Step %016x", cycle, a, b)
				}
			}
			if st.Contended == 0 || st.Ties == 0 || st.FanRefusals == 0 {
				t.Fatalf("the load did not exercise the arbiter: %+v", st)
			}
		})
	}
}
