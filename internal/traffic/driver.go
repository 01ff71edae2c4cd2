package traffic

import (
	"fmt"
	"math/rand"

	"sr2201/internal/core"
	"sr2201/internal/geom"
	"sr2201/internal/stats"
)

// Driver runs an open-loop Bernoulli workload against a machine: each cycle,
// each PE independently starts a new packet with probability Rate (the
// offered load in packets per PE per cycle). Measurement is split into a
// warmup phase (statistics discarded) and a measure phase, followed by a
// bounded drain.
type Driver struct {
	M       *core.Machine
	Pattern Pattern
	// Rate is packets per PE per cycle.
	Rate float64
	// BroadcastRate is broadcasts per PE per cycle (usually 0 or tiny).
	BroadcastRate float64
	// Size is the packet length in flits (0 = machine default).
	Size int
	// Seed makes the workload reproducible.
	Seed int64
	// Warmup and Measure are phase lengths in cycles.
	Warmup, Measure int64
	// Drain bounds the post-measurement drain (0 = 10x Measure).
	Drain int64
}

// Result summarizes one driven run.
type Result struct {
	// Offered is the number of packets injected during measurement.
	Offered int64
	// Delivered is the number of point-to-point deliveries during
	// measurement (broadcast copies counted separately).
	Delivered int64
	// BroadcastCopies counts broadcast deliveries during measurement.
	BroadcastCopies int64
	// Throughput is delivered packets per PE per cycle over the measure
	// phase (accepted traffic).
	Throughput float64
	// Latency is the distribution of measured point-to-point latencies.
	Latency *stats.Latency
	// Conflicts is the total of output-port conflict cycles across all
	// switches over the whole run.
	Conflicts int64
	// Backlog is the total source-queue length at the end of measurement —
	// a growing backlog marks saturation.
	Backlog int
	// Deadlocked reports that the run wedged (possible only with routing
	// schemes that permit it).
	Deadlocked bool
	// Drained reports that the network emptied during the drain phase.
	Drained bool
	// Cycles is the total simulated cycles stepped across all three phases
	// (warmup + measure + drain).
	Cycles int64
}

// SimCycles reports the simulated cycles the run consumed; the experiment
// sweep funnel uses it for progress accounting.
func (r Result) SimCycles() int64 { return r.Cycles }

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("offered=%d delivered=%d thr=%.4f lat{%s} backlog=%d conflicts=%d",
		r.Offered, r.Delivered, r.Throughput, r.Latency, r.Backlog, r.Conflicts)
}

// Run executes the workload.
func (d *Driver) Run() Result {
	if d.Measure <= 0 {
		d.Measure = 1000
	}
	if d.Drain <= 0 {
		d.Drain = 10 * d.Measure
	}
	rng := rand.New(rand.NewSource(d.Seed))
	m := d.M
	startCycle := m.Engine().Cycle()
	shape := m.Shape()
	pes := make([]geom.Coord, 0, shape.Size())
	shape.Enumerate(func(c geom.Coord) bool {
		pes = append(pes, c)
		return true
	})
	// The fault set cannot change while Run executes, so resolve each PE's
	// liveness once instead of once per PE per cycle. Dead PEs never drew
	// from the rng, so pre-filtering leaves the random stream untouched.
	live := pes[:0:0]
	for _, src := range pes {
		if m.Alive(src) {
			live = append(live, src)
		}
	}

	inject := func() int64 {
		var n int64
		for _, src := range live {
			if d.Rate > 0 && rng.Float64() < d.Rate {
				if dst, ok := d.Pattern.Dest(src, rng); ok {
					if _, err := m.Send(src, dst, d.Size); err == nil {
						n++
					}
				}
			}
			if d.BroadcastRate > 0 && rng.Float64() < d.BroadcastRate {
				if _, _, err := m.Broadcast(src, d.Size); err == nil {
					n++
				}
			}
		}
		return n
	}

	// Warmup.
	for i := int64(0); i < d.Warmup; i++ {
		inject()
		m.Step()
	}
	m.ResetStats()

	// Measure.
	var res Result
	for i := int64(0); i < d.Measure; i++ {
		res.Offered += inject()
		m.Step()
	}
	res.Delivered = int64(m.Latency().Count())
	res.BroadcastCopies = int64(m.BroadcastLatency().Count())
	res.Throughput = stats.Throughput(res.Delivered, d.Measure) / float64(len(pes))
	for _, ep := range m.Engine().Endpoints() {
		res.Backlog += ep.InjectQueueLen()
	}

	// Drain with deadlock watch; latencies of packets injected during the
	// measure phase keep accumulating as they arrive.
	out := m.Run(d.Drain)
	res.Drained = out.Drained
	res.Deadlocked = out.Deadlocked
	res.Latency = m.Latency()
	res.Cycles = out.Cycle - startCycle

	for _, sw := range m.Engine().Switches() {
		for _, op := range sw.Out {
			res.Conflicts += op.ConflictCycles
		}
	}
	return res
}
