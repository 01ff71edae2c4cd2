// Benchmarks: one per reproduced paper artifact (see DESIGN.md's
// per-experiment index), each running the corresponding experiment at Quick
// scale, plus micro-benchmarks of the simulation kernel itself.
//
// Run with: go test -bench=. -benchmem
package sr2201_test

import (
	"flag"
	"testing"

	"sr2201"
	"sr2201/internal/experiments"
	"sr2201/internal/sweep"
)

// -parallel caps the sweep worker pool the experiment benchmarks use
// (sweep cells within an experiment, and whole experiments in
// BenchmarkFullSuite). 1 forces serial runs; the default uses every CPU.
var parallelFlag = flag.Int("parallel", sweep.DefaultParallel(), "worker-pool width for experiment sweeps")

// benchExperiment runs one registered experiment per iteration and fails the
// benchmark if the experiment errors or its shape criterion fails.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		r, err := e.Run(experiments.Options{Quick: true, Parallel: *parallelFlag})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Pass {
			b.Fatalf("%s shape criterion failed", id)
		}
	}
}

// BenchmarkFullSuite runs every registered experiment (Quick scale) per
// iteration, sharded across the -parallel worker pool — the same shape as
// `mdxbench -quick -parallel=N`.
func BenchmarkFullSuite(b *testing.B) {
	all := experiments.All()
	for i := 0; i < b.N; i++ {
		reports, _ := sweep.Do(nil, nil, len(all), *parallelFlag, func(j int) *experiments.Report {
			r, err := all[j].Run(experiments.Options{Quick: true, Parallel: *parallelFlag})
			if err != nil {
				b.Errorf("%s: %v", all[j].ID, err)
				return nil
			}
			return r
		})
		for j, r := range reports {
			if r != nil && !r.Pass {
				b.Errorf("%s shape criterion failed", all[j].ID)
			}
		}
	}
}

func BenchmarkE1BroadcastDeadlock(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2BroadcastYXY(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE3DetourPath(b *testing.B)           { benchExperiment(b, "E3") }
func BenchmarkE4DeadlockDXBneSXB(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5DeadlockFree(b *testing.B)         { benchExperiment(b, "E5") }
func BenchmarkE6TopologyCompare(b *testing.B)      { benchExperiment(b, "E6") }
func BenchmarkE7FaultOverhead(b *testing.B)        { benchExperiment(b, "E7") }
func BenchmarkE8BroadcastScaling(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9Remapping(b *testing.B)            { benchExperiment(b, "E9") }
func BenchmarkE10Scaling(b *testing.B)             { benchExperiment(b, "E10") }
func BenchmarkE11FullMachine(b *testing.B)         { benchExperiment(b, "E11") }
func BenchmarkE12Collectives(b *testing.B)         { benchExperiment(b, "E12") }
func BenchmarkE13MultiFault(b *testing.B)          { benchExperiment(b, "E13") }
func BenchmarkA1Acquisition(b *testing.B)          { benchExperiment(b, "A1") }
func BenchmarkA2BufferDepth(b *testing.B)          { benchExperiment(b, "A2") }
func BenchmarkA3PivotTradeoff(b *testing.B)        { benchExperiment(b, "A3") }
func BenchmarkF1DynamicFaultRecovery(b *testing.B) { benchExperiment(b, "F1") }
func BenchmarkF2FaultCampaign(b *testing.B)        { benchExperiment(b, "F2") }
func BenchmarkF3Retransmission(b *testing.B)       { benchExperiment(b, "F3") }
func BenchmarkV1StaticVerification(b *testing.B)   { benchExperiment(b, "V1") }

// --- kernel micro-benchmarks ---

// BenchmarkSimulationCycle measures raw kernel speed: cycles per second on a
// loaded 8x8 crossbar (refilled with a packet wave whenever it drains).
func BenchmarkSimulationCycle(b *testing.B) {
	shape := sr2201.MustShape(8, 8)
	m, err := sr2201.NewMachine(sr2201.Config{Shape: shape})
	if err != nil {
		b.Fatal(err)
	}
	refill := func() {
		shape.Enumerate(func(c sr2201.Coord) bool {
			dst := shape.CoordOf((shape.Index(c) + 27) % shape.Size())
			_, _ = m.Send(c, dst, 8)
			return true
		})
	}
	refill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Engine().Quiescent() {
			b.StopTimer()
			refill()
			b.StartTimer()
		}
		m.Step()
	}
}

// BenchmarkUnicastSend measures end-to-end single-packet delivery.
func BenchmarkUnicastSend(b *testing.B) {
	shape := sr2201.MustShape(8, 8)
	m, err := sr2201.NewMachine(sr2201.Config{Shape: shape})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Send(sr2201.Coord{0, 0}, sr2201.Coord{7, 7}, 8); err != nil {
			b.Fatal(err)
		}
		if out := m.Run(10_000); !out.Drained {
			b.Fatal("did not drain")
		}
	}
}

// BenchmarkBroadcast measures one full hardware broadcast on 8x8.
func BenchmarkBroadcast(b *testing.B) {
	shape := sr2201.MustShape(8, 8)
	m, err := sr2201.NewMachine(sr2201.Config{Shape: shape})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Broadcast(sr2201.Coord{3, 3}, 8); err != nil {
			b.Fatal(err)
		}
		if out := m.Run(10_000); !out.Drained {
			b.Fatal("did not drain")
		}
	}
}

// BenchmarkStaticPath measures routing-policy path computation.
func BenchmarkStaticPath(b *testing.B) {
	shape := sr2201.MustShape(8, 8)
	m, err := sr2201.NewMachine(sr2201.Config{Shape: shape})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.AddFault(sr2201.RouterFault(sr2201.Coord{4, 2})); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := shape.CoordOf(i % shape.Size())
		dst := shape.CoordOf((i*13 + 5) % shape.Size())
		if src == (sr2201.Coord{4, 2}) || dst == (sr2201.Coord{4, 2}) {
			continue
		}
		if _, err := m.Policy().UnicastPath(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineConstruction measures network build time (8x8: 144 nodes).
func BenchmarkMachineConstruction(b *testing.B) {
	shape := sr2201.MustShape(8, 8)
	for i := 0; i < b.N; i++ {
		if _, err := sr2201.NewMachine(sr2201.Config{Shape: shape}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoutingAlgorithmic vs BenchmarkRoutingTables compare the two
// switch-decision implementations under the same workload.
func benchRoutingMode(b *testing.B, tables bool) {
	shape := sr2201.MustShape(8, 8)
	m, err := sr2201.NewMachine(sr2201.Config{Shape: shape})
	if err != nil {
		b.Fatal(err)
	}
	if tables {
		if err := m.UseCompiledTables(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Engine().Quiescent() {
			b.StopTimer()
			shape.Enumerate(func(c sr2201.Coord) bool {
				dst := shape.CoordOf((shape.Index(c) + 19) % shape.Size())
				_, _ = m.Send(c, dst, 8)
				return true
			})
			b.StartTimer()
		}
		m.Step()
	}
}

func BenchmarkRoutingAlgorithmic(b *testing.B) { benchRoutingMode(b, false) }
func BenchmarkRoutingTables(b *testing.B)      { benchRoutingMode(b, true) }
