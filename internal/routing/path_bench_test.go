package routing_test

import (
	"math/rand"
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
)

// faultedVCPolicy is the escape policy of the benchmark's short-vc-faulted
// machine (8x8x8 with 4 lanes, adaptive routing and one faulty router), the
// one its path queries and certificates walk, and that machine's healthy
// PEs.
func faultedVCPolicy(b *testing.B) (*routing.Policy, []geom.Coord) {
	b.Helper()
	m, err := core.NewMachine(core.Config{Shape: geom.MustShape(8, 8, 8), VCs: 4, Adaptive: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.AddFault(fault.RouterFault(geom.Coord{4, 2, 1})); err != nil {
		b.Fatal(err)
	}
	var live []geom.Coord
	m.Shape().Enumerate(func(c geom.Coord) bool {
		if !m.Faults().RouterFaulty(c) {
			live = append(live, c)
		}
		return true
	})
	return m.Policy(), live
}

// BenchmarkUnicastPath times the static element path of seeded pairs of
// distinct healthy PEs (all of them served).
func BenchmarkUnicastPath(b *testing.B) {
	p, live := faultedVCPolicy(b)
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
		pr := pairs[i%len(pairs)]
		if _, err := p.UnicastPath(pr[0], pr[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcastTree times the static S-XB broadcast tree from every
// healthy PE in turn.
func BenchmarkBroadcastTree(b *testing.B) {
	p, live := faultedVCPolicy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.BroadcastTree(live[i%len(live)]); err != nil {
			b.Fatal(err)
		}
	}
}
