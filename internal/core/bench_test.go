package core_test

import (
	"math"
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

// BenchmarkMachineReachable times Send's reachability precheck on seeded
// pairs of distinct healthy PEs, all of them served: on the faulted machine
// the pairs whose dimension-order route misses the fault (served by the
// plain-route test) and those whose route crosses it (served by the walk),
// and on the fault-free 2048-PE 8x16x16.
func BenchmarkMachineReachable(b *testing.B) {
	faulted := faultedVCMachine(b)
	plain := faulted.Policy().PlainRoute
	b.Run("precheck", func(b *testing.B) {
		benchReachable(b, faulted, plain)
	})
	b.Run("walk", func(b *testing.B) {
		benchReachable(b, faulted, func(src, dst geom.Coord) bool { return !plain(src, dst) })
	})
	b.Run("fault-free-8x16x16", func(b *testing.B) {
		m, err := core.NewMachine(core.Config{Shape: geom.MustShape(8, 16, 16)})
		if err != nil {
			b.Fatal(err)
		}
		benchReachable(b, m, func(geom.Coord, geom.Coord) bool { return true })
	})
}

// benchReachable times m.Reachable on 1024 seeded pairs of distinct healthy
// PEs that keep selects.
func benchReachable(b *testing.B, m *core.Machine, keep func(src, dst geom.Coord) bool) {
	var live []geom.Coord
	m.Shape().Enumerate(func(c geom.Coord) bool {
		if !m.Faults().RouterFaulty(c) {
			live = append(live, c)
		}
		return true
	})
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]geom.Coord, 0, 1024)
	for len(pairs) < cap(pairs) {
		s, d := rng.Intn(len(live)), rng.Intn(len(live)-1)
		if d >= s {
			d++
		}
		if keep(live[s], live[d]) {
			pairs = append(pairs, [2]geom.Coord{live[s], live[d]})
		}
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

// BenchmarkMachineBroadcast times Broadcast: its count of the copies, one
// walk of the static tree on the machine's own walker, and the injection,
// from seeded live PEs. A warm-up broadcast sizes the walk's scratch, and
// every 16 calls the queued broadcasts drain with the timer stopped, so the
// header pool and the source queues keep their size.
func BenchmarkMachineBroadcast(b *testing.B) {
	m := faultedVCMachine(b)
	var live []geom.Coord
	m.Shape().Enumerate(func(c geom.Coord) bool {
		if m.Alive(c) {
			live = append(live, c)
		}
		return true
	})
	rng := rand.New(rand.NewSource(1))
	srcs := make([]geom.Coord, 1024)
	for i := range srcs {
		srcs[i] = live[rng.Intn(len(live))]
	}
	drain := func() {
		if out := m.Run(1_000_000); !out.Drained {
			b.Fatalf("broadcasts did not drain: %+v", out)
		}
	}
	for i := 0; i < 16; i++ {
		if _, _, err := m.Broadcast(srcs[i], 2); err != nil {
			b.Fatal(err)
		}
	}
	drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%16 == 0 {
			b.StopTimer()
			drain()
			b.StartTimer()
		}
		if _, _, err := m.Broadcast(srcs[i%len(srcs)], 2); err != nil {
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

// kernelBench is one of the benchmark's three kernel machines with its
// traffic: Bernoulli unicasts (and S-XB broadcasts) between live PEs, at the
// benchmark's rates, packet sizes, warm-up and window lengths.
type kernelBench struct {
	name        string
	cfg         core.Config
	faults      []fault.Fault
	tables      bool
	rate, bRate float64 // packets per PE per cycle
	size        int
	warmup      int // cycles stepped before the timer starts
	window      int // cycles per op
}

var kernelBenches = []kernelBench{
	{name: "dense-long", cfg: core.Config{Shape: geom.MustShape(16, 16)}, rate: 0.02, size: 16, warmup: 12_000, window: 225},
	{name: "short-vc-faulted", cfg: core.Config{Shape: geom.MustShape(8, 8, 8), VCs: 4, Adaptive: true},
		faults: []fault.Fault{fault.RouterFault(geom.Coord{4, 2, 1})}, rate: 0.10, bRate: 1e-5, size: 2, warmup: 2_000, window: 30},
	{name: "full-machine-sparse", cfg: core.Config{Shape: geom.MustShape(8, 16, 16)}, tables: true, rate: 0.0005, size: core.DefaultPacketSize, warmup: 5_000, window: 900},
}

// kernelSend is one scheduled send: in cycle cycle of its window, live PE
// src sends to live PE dst, or broadcasts when dst < 0.
type kernelSend struct{ cycle, src, dst int }

// kernelWindows is how many distinct windows a benchmark's schedule holds;
// the ops cycle through them.
const kernelWindows = 16

// schedule draws the seeded sends of kernelWindows windows over pes live
// PEs, by geometric gaps over the (cycle, PE) slots.
func (w kernelBench) schedule(pes int) [][]kernelSend {
	rng := rand.New(rand.NewSource(1))
	gap := func(p float64, from int) int {
		if p <= 0 {
			return math.MaxInt
		}
		return from + 1 + int(math.Log(1-rng.Float64())/math.Log(1-p))
	}
	slots := w.window * pes
	uni, bcast := gap(w.rate, -1), gap(w.bRate, -1)
	sched := make([][]kernelSend, kernelWindows)
	for i := range sched {
		for end := (i + 1) * slots; min(uni, bcast) < end; {
			at := min(uni, bcast)
			s := kernelSend{cycle: at % slots / pes, src: at % pes, dst: -1}
			if bcast < uni {
				bcast = gap(w.bRate, at)
			} else {
				s.dst = (s.src + 1 + rng.Intn(pes-1)) % pes
				uni = gap(w.rate, at)
			}
			sched[i] = append(sched[i], s)
		}
	}
	return sched
}

// play sends one window's schedule cycle by cycle and steps the machine
// through it, then clears the delivery records as a harvest would.
func (w kernelBench) play(b *testing.B, m *core.Machine, live []geom.Coord, sends []kernelSend) {
	i := 0
	for c := 0; c < w.window; c++ {
		for ; i < len(sends) && sends[i].cycle == c; i++ {
			s := sends[i]
			var err error
			if s.dst < 0 {
				_, _, err = m.Broadcast(live[s.src], w.size)
			} else {
				_, err = m.Send(live[s.src], live[s.dst], w.size)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		m.Step()
	}
	m.ResetStats()
}

// BenchmarkKernelStep times the kernel on the benchmark's three machines
// (bench/'s kernel workloads) in-process: one op is one window of cycles
// with its sends. The machine is built, its schedule drawn and its warm-up
// stepped before the timer starts, once per workload. It also reports the
// flit moves per op and the time per move, the cost of one hop.
func BenchmarkKernelStep(b *testing.B) {
	for _, w := range kernelBenches {
		var (
			m     *core.Machine
			live  []geom.Coord
			sched [][]kernelSend
			op    int
		)
		b.Run(w.name, func(b *testing.B) {
			if m == nil {
				var err error
				if m, err = core.NewMachine(w.cfg); err != nil {
					b.Fatal(err)
				}
				for _, f := range w.faults {
					if err := m.AddFault(f); err != nil {
						b.Fatal(err)
					}
				}
				if w.tables {
					if err := m.UseCompiledTables(); err != nil {
						b.Fatal(err)
					}
				}
				m.Shape().Enumerate(func(c geom.Coord) bool {
					if m.Alive(c) {
						live = append(live, c)
					}
					return true
				})
				sched = w.schedule(len(live))
				for ; op*w.window < w.warmup; op++ {
					w.play(b, m, live, sched[op%kernelWindows])
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			moves := m.Engine().Moves()
			for i := 0; i < b.N; i++ {
				w.play(b, m, live, sched[op%kernelWindows])
				op++
			}
			moves = m.Engine().Moves() - moves
			b.ReportMetric(float64(moves)/float64(b.N), "moves/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(moves), "ns/move")
		})
	}
}

// BenchmarkNewMachine times building a machine, with its allocations: the
// 4x4 of a serve-mixed campaign cell, the 8x8x8 4-lane adaptive machine of
// short-vc-faulted and the 2048-PE 8x16x16 SR2201.
func BenchmarkNewMachine(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{
		{"4x4", core.Config{Shape: geom.MustShape(4, 4)}},
		{"8x8x8-4lane", core.Config{Shape: geom.MustShape(8, 8, 8), VCs: 4, Adaptive: true}},
		{"8x16x16", core.Config{Shape: geom.MustShape(8, 16, 16)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewMachine(c.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
