package engine_test

import (
	"fmt"
	"slices"
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/engine"
	"sr2201/internal/geom"
)

// TestPerSwitchArbitrationMatchesGlobalOrder runs loaded machines with
// serialized and naive broadcasts in flight — fan-outs that fail to get all
// their ports and reserve them — and holds them to the spec every cycle.
// The spec grants in one network-wide arrival order, (stamp, node, tie key);
// the kernel orders each switch's requests on its own.
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
			m, err := core.NewMachine(core.Config{Shape: tc.shape, NaiveBroadcast: tc.naive, Engine: engine.Config{BufferDepth: 2, Acquire: engine.AcquireAtomic}})
			if err != nil {
				t.Fatal(err)
			}
			l := newLockstep(m.Engine())
			// What the load exercised: switch-cycles with competing
			// requests, arrival ties among them, refused fan-outs.
			var contended, ties, refusals int
			l.s.onAtomic = func(reqs []int) {
				stamps := map[int][]int64{}
				for _, p := range reqs {
					r := &l.s.ports[p]
					stamps[r.node.ID] = append(stamps[r.node.ID], r.route.since)
					if len(r.route.outs) > 1 && slices.ContainsFunc(r.route.outs, func(o int) bool { return l.s.ports[o].owner >= 0 }) {
						refusals++
					}
				}
				for _, st := range stamps {
					slices.Sort(st)
					contended += min(len(st)-1, 1)
					ties += len(st) - len(slices.Compact(st))
				}
			}
			n := tc.shape.Size()
			for cycle := 0; cycle < 600; cycle++ {
				// Three unicasts a cycle for a while, and a broadcast every 8.
				for k := 0; k < 3 && cycle < 160; k++ {
					src := (cycle*7 + k*11) % n
					dst := (src + 1 + (cycle*5+k*3)%(n-1)) % n
					if _, err := m.Send(tc.shape.CoordOf(src), tc.shape.CoordOf(dst), 6); err != nil {
						t.Fatal(err)
					}
				}
				if cycle%8 == 0 && cycle < 160 {
					if _, _, err := m.Broadcast(tc.shape.CoordOf((cycle/8*5)%n), 6); err != nil {
						t.Fatal(err)
					}
				}
				m.Step()
				l.check(t)
			}
			if contended == 0 || ties == 0 || refusals == 0 {
				t.Fatalf("the load did not exercise the arbiter: %d contended, %d ties, %d fan-outs refused", contended, ties, refusals)
			}
		})
	}
}
