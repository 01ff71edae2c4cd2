package core_test

import (
	"math/rand"
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/deadlock"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
)

// faultedVCMachine is the machine of the benchmark's short-vc-faulted
// workload: 8x8x8 with 4 lanes, adaptive routing and one faulty router.
func faultedVCMachine(b *testing.B) *core.Machine {
	b.Helper()
	m, err := core.NewMachine(core.Config{Shape: geom.MustShape(8, 8, 8), VCs: 4, Adaptive: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.AddFault(fault.RouterFault(geom.Coord{4, 2, 1})); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkMachineReachable times Send's reachability precheck, one static
// route walk over the machine's own wiring, on seeded pairs of distinct
// healthy PEs (all of them served).
func BenchmarkMachineReachable(b *testing.B) {
	m := faultedVCMachine(b)
	var live []geom.Coord
	m.Shape().Enumerate(func(c geom.Coord) bool {
		if !m.Faults().RouterFaulty(c) {
			live = append(live, c)
		}
		return true
	})
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]geom.Coord, 1024)
	for i := range pairs {
		s, d := rng.Intn(len(live)), rng.Intn(len(live)-1)
		if d >= s {
			d++
		}
		pairs[i] = [2]geom.Coord{live[s], live[d]}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if err := m.Reachable(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeFig9 times the deadlock analyzer on a wedged engine: the
// bare Fig. 9 machine (separate D-XB, a faulty router, a detoured unicast
// and a broadcast) run to its deadlock.
func BenchmarkAnalyzeFig9(b *testing.B) {
	m, err := core.NewMachine(core.Config{
		Shape: geom.MustShape(4, 4), SXB: geom.Coord{0, 0}, DXB: geom.Coord{0, 3}, DXBSeparate: true, StallThreshold: 128,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.AddFault(fault.RouterFault(geom.Coord{2, 1})); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Send(geom.Coord{0, 1}, geom.Coord{2, 2}, 24); err != nil {
		b.Fatal(err)
	}
	if _, _, err := m.Broadcast(geom.Coord{3, 2}, 24); err != nil {
		b.Fatal(err)
	}
	if out := m.Run(100_000); !out.Deadlocked {
		b.Fatalf("no deadlock: %+v", out)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := deadlock.Analyze(m.Engine()); !rep.Deadlocked {
			b.Fatal("analyzer lost the wait cycle")
		}
	}
}
