package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"sr2201/internal/cdg"
	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
)

// kernelWorkload drives one core.Machine with open-loop Bernoulli traffic.
// An op is a fixed number of simulated cycles followed by a harvest, so
// ops_per_s times opCycles is simulated cycles per host second.
type kernelWorkload struct {
	name      string
	shape     geom.Shape
	vcs       int
	adaptive  bool
	preset    []fault.Fault
	tables    bool    // route by compiled lookup tables
	rate      float64 // unicast packets per PE per cycle
	bcastRate float64 // hardware broadcasts per PE per cycle
	size      int     // flits per packet
	warmup    int     // simulated cycles run during set-up
	opCycles  int     // simulated cycles per op
}

// opsPerSecond fixes the work of the timed phase: a run executes exactly
// opsPerSecond x --seconds ops (800 at the declared 20 s), however long the
// host takes over them, so every number of a seed is taken over the same
// ops. The workloads are sized so that an op lasts about 1/opsPerSecond on
// the 2-core reference box, which makes the timed phase last about --seconds
// there.
const opsPerSecond = 40

func timedOps(seconds float64) int {
	return max(1, int(math.Round(seconds*opsPerSecond)))
}

// setupsPerRun is how many times a run sets up; setup_s is their median.
const setupsPerRun = 3

// The sizes below were chosen on the 2-core reference box: an op lasts
// 20-27 ms and every set-up at least a second.
var kernelWorkloads = []kernelWorkload{
	{
		name:  "dense-long",
		shape: geom.MustShape(16, 16),
		rate:  0.02, size: 16,
		warmup: 12_000, opCycles: 225,
	},
	{
		name:  "short-vc-faulted",
		shape: geom.MustShape(8, 8, 8),
		vcs:   4, adaptive: true,
		preset: []fault.Fault{fault.RouterFault(geom.Coord{4, 2, 1})},
		rate:   0.10, bcastRate: 1e-5, size: 2,
		warmup: 2_000, opCycles: 30,
	},
	{
		name:   "full-machine-sparse",
		shape:  geom.MustShape(8, 16, 16),
		tables: true,
		rate:   0.0005, size: core.DefaultPacketSize,
		warmup: 5_000, opCycles: 900,
	},
}

// injection is one scheduled send: at cycle (relative to the window) the
// live PE src sends to the live PE dst, or broadcasts when dst < 0.
type injection struct {
	cycle    int32
	src, dst int32
}

// generator produces the injection schedule from the seed, window by
// window. The two Bernoulli processes (unicast, broadcast) are sampled by
// their geometric gaps over the flattened (cycle, PE) slots, so generating
// a window costs one draw per injection, not one per PE per cycle.
type generator struct {
	rng         *rand.Rand
	pes         int
	rate, bRate float64
	slot        int64 // first slot of the next window
	nextUni     int64
	nextBcast   int64
	buf         []injection
	digest      uint64 // FNV-1a over every injection generated
}

const never = math.MaxInt64

// FNV-1a, for the schedule digest.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newGenerator(seed int64, pes int, rate, bRate float64) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed)), pes: pes, rate: rate, bRate: bRate, digest: fnvOffset}
	g.nextUni = g.gap(rate, -1)
	g.nextBcast = g.gap(bRate, -1)
	return g
}

// gap returns the slot of the next success after slot from.
func (g *generator) gap(p float64, from int64) int64 {
	if p <= 0 {
		return never
	}
	skip := math.Floor(math.Log(1-g.rng.Float64()) / math.Log(1-p))
	if skip > 1e15 {
		return never
	}
	return from + 1 + int64(skip)
}

// fill generates the next window of the given number of cycles. The result
// is valid until the next call.
func (g *generator) fill(cycles int) []injection {
	g.buf = g.buf[:0]
	end := g.slot + int64(cycles)*int64(g.pes)
	for {
		bcast := g.nextBcast < g.nextUni
		at := g.nextUni
		if bcast {
			at = g.nextBcast
		}
		if at >= end {
			break
		}
		rel := at - g.slot
		in := injection{cycle: int32(rel / int64(g.pes)), src: int32(rel % int64(g.pes)), dst: -1}
		if bcast {
			g.nextBcast = g.gap(g.bRate, at)
		} else {
			d := g.rng.Intn(g.pes - 1)
			if d >= int(in.src) {
				d++
			}
			in.dst = int32(d)
			g.nextUni = g.gap(g.rate, at)
		}
		g.buf = append(g.buf, in)
		for _, v := range [2]uint64{uint64(at), uint64(uint32(in.dst))} {
			g.digest = (g.digest ^ v) * fnvPrime
		}
	}
	g.slot = end
	return g.buf
}

// ledger checks the machine's deliveries against what was sent: every
// unicast delivered exactly once, every broadcast delivered to each
// promised PE. It also keeps the simulated-latency histogram.
type ledger struct {
	state       []uint8        // by packet id: 0 never sent, 1 unicast in flight, 2 unicast delivered
	copies      map[uint64]int // broadcast id → copies still owed
	outstanding int            // unicasts in flight
	wrong       int            // deliveries that matched nothing owed
	firstWrong  string
	hist        []int64 // unicast latency in cycles → packets
	unicasts    int64   // unicast deliveries since the last reset
	bcastCopies int64   // broadcast copies since the last reset
}

func newLedger() *ledger {
	return &ledger{state: make([]uint8, 1, 1<<20), copies: map[uint64]int{}, hist: make([]int64, 1<<14)}
}

func (l *ledger) sentUnicast(id uint64) {
	for uint64(len(l.state)) <= id {
		l.state = append(l.state, 0)
	}
	l.state[id] = 1
	l.outstanding++
}

func (l *ledger) sentBroadcast(id uint64, copies int) { l.copies[id] = copies }

func (l *ledger) delivered(d core.Delivery) {
	if d.Broadcast {
		left, ok := l.copies[d.PacketID]
		if !ok {
			l.bad("broadcast copy of packet %d at %v was not owed", d.PacketID, d.At)
			return
		}
		if left == 1 {
			delete(l.copies, d.PacketID)
		} else {
			l.copies[d.PacketID] = left - 1
		}
		l.bcastCopies++
		return
	}
	if d.PacketID >= uint64(len(l.state)) || l.state[d.PacketID] != 1 {
		l.bad("unicast packet %d delivered at %v but not in flight (duplicate or unknown)", d.PacketID, d.At)
		return
	}
	l.state[d.PacketID] = 2
	l.outstanding--
	l.unicasts++
	lat := d.Latency
	if lat >= int64(len(l.hist)) {
		lat = int64(len(l.hist)) - 1
	}
	l.hist[lat]++
}

func (l *ledger) bad(format string, args ...any) {
	if l.wrong == 0 {
		l.firstWrong = fmt.Sprintf(format, args...)
	}
	l.wrong++
}

func (l *ledger) resetStats() {
	clear(l.hist)
	l.unicasts, l.bcastCopies = 0, 0
}

// latencyPercentile is a percentile of the unicast latencies in cycles,
// interpolated within the histogram's one-cycle bin (latency L covers
// L-0.5 to L+0.5), so that any shift of the distribution moves it, not only
// one that crosses a whole cycle. It lies within half a cycle of the
// nearest-rank percentile.
func (l *ledger) latencyPercentile(p float64) float64 {
	rank := p / 100 * float64(l.unicasts)
	var seen float64
	for lat, n := range l.hist {
		if n > 0 && seen+float64(n) >= rank {
			return float64(lat) - 0.5 + (rank-seen)/float64(n)
		}
		seen += float64(n)
	}
	return 0
}

// kernelRun is one set-up machine with its traffic source and ledger.
type kernelRun struct {
	w            kernelWorkload
	m            *core.Machine
	live         []geom.Coord
	gen          *generator
	led          *ledger
	tr           *tracer
	tablesHeapMB float64
	packets      int64 // packets sent while the tracer recorded
	sink         int64
}

// setUp builds the machine, installs the preset faults, compiles the tables
// and runs the simulated warm-up: everything before the first timed op.
func (w kernelWorkload) setUp(seed int64, tr *tracer) (*kernelRun, error) {
	tr.begin(spSetup)
	defer tr.end()
	// The run records its per-cycle spans only once the warm-up is over, so
	// that their totals describe the timed phase alone.
	k := &kernelRun{w: w, led: newLedger()}

	tr.begin(spNewMachine)
	m, err := core.NewMachine(core.Config{Shape: w.shape, VCs: w.vcs, Adaptive: w.adaptive})
	tr.end()
	if err != nil {
		return nil, err
	}
	k.m = m
	for _, f := range w.preset {
		tr.begin(spAddFault)
		err := m.AddFault(f)
		tr.end()
		if err != nil {
			return nil, err
		}
	}
	if w.tables {
		var before, after runtime.MemStats
		if tr.active() {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		tr.begin(spCompileTables)
		err := m.UseCompiledTables()
		tr.end()
		if err != nil {
			return nil, err
		}
		if tr.active() {
			runtime.GC()
			runtime.ReadMemStats(&after)
			k.tablesHeapMB = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
		}
	}
	w.shape.Enumerate(func(c geom.Coord) bool {
		if m.Alive(c) {
			k.live = append(k.live, c)
		}
		return true
	})
	k.gen = newGenerator(seed, len(k.live), w.rate, w.bcastRate)

	tr.begin(spWarmup)
	for done := 0; done < w.warmup; {
		n := min(w.opCycles, w.warmup-done)
		if failed := k.play(k.gen.fill(n), n); failed > 0 {
			tr.end()
			return nil, fmt.Errorf("%s: %d sends refused during warm-up", w.name, failed)
		}
		k.harvest()
		done += n
	}
	tr.end()
	k.led.resetStats()
	k.tr = tr
	return k, nil
}

// play injects a window's schedule cycle by cycle and steps the machine
// through it. It returns the number of sends the machine refused. The S-XB
// broadcast comes back to its source too, so it owes one copy to every live
// PE: the ledger holds it to that whatever the machine promised, and a
// different promise counts as a refusal.
func (k *kernelRun) play(sched []injection, cycles int) (refused int) {
	tr := k.tr
	i := 0
	for c := 0; c < cycles; c++ {
		tr.begin(spSend)
		first := i
		for ; i < len(sched) && int(sched[i].cycle) == c; i++ {
			in := sched[i]
			if in.dst < 0 {
				tr.begin(spBroadcast)
				id, copies, err := k.m.Broadcast(k.live[in.src], k.w.size)
				tr.end()
				if err != nil {
					refused++
					continue
				}
				if copies != len(k.live) {
					refused++
				}
				k.led.sentBroadcast(id, len(k.live))
				continue
			}
			id, err := k.m.Send(k.live[in.src], k.live[in.dst], k.w.size)
			if err != nil {
				refused++
				continue
			}
			k.led.sentUnicast(id)
		}
		tr.end()
		if tr.active() {
			k.packets += int64(i - first)
		}
		tr.begin(spStep)
		k.m.Step()
		tr.end()
	}
	return refused
}

// harvest reads the machine's statistics the way a user of the simulator
// does after a stretch of cycles, feeds the ledger, and clears them:
// core.Machine keeps every delivery record until ResetStats, so a run that
// never harvests grows without bound.
func (k *kernelRun) harvest() {
	k.tr.begin(spHarvest)
	lat := k.m.Latency()
	k.sink += lat.Percentile(50) + lat.Percentile(95)
	for _, d := range k.m.Deliveries() {
		k.led.delivered(d)
	}
	k.m.ResetStats()
	k.tr.end()
}

func (k *kernelRun) backlog() int64 {
	var n int64
	for _, ep := range k.m.Engine().Endpoints() {
		n += int64(ep.InjectQueueLen())
	}
	return n
}

// cdgMaxPEs is the largest machine the traced run analyses with cdg.Analyze.
const cdgMaxPEs = 1024

// blockOps is the length of the alternating traced/untraced blocks of a
// traced run; comparing the two halves gives the tracing overhead.
const blockOps = 8

func runKernel(w kernelWorkload, o options) (*report, error) {
	rep := newReport(w.name, o.seed, o.trace)
	start := time.Now()
	var tr *tracer
	if o.trace {
		tr = newTracer(start)
	}
	self := os.Getpid()

	k, err := w.setUp(o.seed, tr)
	if err != nil {
		return nil, err
	}
	setups := []time.Duration{time.Since(start)}
	m := k.m

	// Timed phase: a fixed number of ops.
	var (
		ops      = timedOps(o.seconds)
		durs     = make([]int64, 0, ops)
		backlogs = make([]int64, 0, ops)
		ms0, ms1 runtime.MemStats
		refused  int
		// op time and count of the recorded and the unrecorded blocks
		onNs, offNs, onOps, offOps float64
	)
	yard, err := newYardstick(ops)
	if err != nil {
		return nil, err
	}
	defer yard.close()
	sampler, err := startRSSSampler(self)
	if err != nil {
		return nil, err
	}
	ctr0 := m.Engine().Counters()
	cycle0 := m.Cycle()
	runtime.ReadMemStats(&ms0)
	cpu0, err := procCPU(self)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for op := 0; op < ops; op++ {
		sched := k.gen.fill(w.opCycles)
		if tr != nil {
			tr.on = (op/blockOps)%2 == 0
			tr.op = op
		}
		opStart := time.Now()
		tr.begin(spOp)
		bad := k.play(sched, w.opCycles)
		k.harvest()
		tr.end()
		d := int64(time.Since(opStart))
		durs = append(durs, d)
		if tr.active() {
			onNs, onOps = onNs+float64(d), onOps+1
		} else {
			offNs, offOps = offNs+float64(d), offOps+1
		}
		backlogs = append(backlogs, k.backlog())
		rep.attempted++
		if bad > 0 {
			rep.failed++
			refused += bad
		}
		yard.run()
	}
	// The yardstick's own time is no part of the workload: it is one
	// thread's pure computation, so it comes off the wall clock and the
	// process's CPU time alike, and its mapping off the resident set.
	wall := time.Since(t0) - yard.total
	cpu1, err := procCPU(self)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	rss, err := sampler.meanMB()
	if err != nil {
		return nil, err
	}
	// What the simulation did over the timed phase: the same for every run
	// of a seed, however fast the host was.
	var (
		ctr1        = m.Engine().Counters()
		cycles      = m.Cycle() - cycle0
		delivered   = k.led.unicasts
		bcastCopies = k.led.bcastCopies
		simP50      = k.led.latencyPercentile(50)
		simP95      = k.led.latencyPercentile(95)
		stateHash   = m.Engine().StateHash()
		schedule    = k.gen.digest
		livePEs     = len(k.live)
		steps       = float64(ops * w.opCycles)
	)
	if tr != nil {
		tr.on, tr.op = true, -1
	}

	// Probes on the loaded machine (traced run only).
	var snapKB float64
	if tr != nil {
		for i := 0; i < 5; i++ {
			tr.begin(spStateHash)
			k.sink += int64(m.Engine().StateHash() & 1)
			tr.end()
		}
		before := m.Engine().StateHash()
		tr.begin(spSnapshot)
		snap := m.Snapshot()
		tr.end()
		snapKB = float64(len(snap)) / 1024
		tr.begin(spRestore)
		err := m.Restore(snap)
		tr.end()
		if err != nil {
			rep.problem("restoring the machine's own snapshot: %v", err)
		} else if after := m.Engine().StateHash(); after != before {
			rep.problem("state hash %x after snapshot/restore, %x before", after, before)
		}
	}

	// Output checks: stop injecting and drain.
	tr.begin(spDrain)
	out := m.Run(1_000_000)
	tr.end()
	k.harvest()
	switch {
	case out.Deadlocked:
		rep.problem("drain deadlocked at cycle %d", out.Cycle)
	case !out.Drained:
		rep.problem("network did not drain by cycle %d", out.Cycle)
	}
	if refused > 0 {
		rep.problem("%d sends refused by the machine", refused)
	}
	if k.led.outstanding != 0 {
		rep.problem("%d unicast packets never delivered", k.led.outstanding)
	}
	if n := len(k.led.copies); n != 0 {
		rep.problem("%d broadcasts missing copies", n)
	}
	if k.led.wrong != 0 {
		rep.problem("%d unexpected deliveries, first: %s", k.led.wrong, k.led.firstWrong)
	}
	if d := m.Dropped(); d != 0 {
		rep.problem("%d packets dropped inside the network", d)
	}
	// Stationarity: over the last 100 ops the source queues hold at most
	// twice what they held over the first 100. A mean backlog under one
	// packet is an empty queue, whatever the ratio.
	n := max(min(100, ops/2), 1)
	first, last := meanOf(backlogs[:n]), meanOf(backlogs[ops-n:])
	if last > 2*first && last > float64(w.size) {
		rep.problem("source backlog grew from %.0f to %.0f flits: offered load is past saturation", first, last)
	}

	if tr != nil {
		k.probeRouting(o.seed, rep)
		rep.set("routing.tables_heap_mb", k.tablesHeapMB)
		if tp, ok := m.Network().Policy().(*routing.TablePolicy); ok {
			rep.set("routing.table_entries", float64(tp.Entries()))
		}
	}
	packets := k.packets

	// Set up again: setup_s is the median of several set-ups. The later
	// ones run after the timed phase so they cannot disturb its numbers.
	for i := 1; i < setupsPerRun; i++ {
		k, m = nil, nil
		runtime.GC()
		s := time.Now()
		if _, err := w.setUp(o.seed, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(s))
	}

	rep.set("setup_s", medianSeconds(setups))
	rep.setTimings(yard, float64(ops)/wall.Seconds(), percentile(durs, 50)/1e6, percentile(durs, 75)/1e6,
		max(0, ms(cpu1-cpu0-yard.total))/float64(ops))
	rep.set("rss_mb", rss-yardBytes/(1<<20))
	// The same on every run of a seed (allocs_per_op to a few allocations
	// in millions: the Go runtime makes a handful of its own, and a traced
	// run adds the tracer's buffers).
	rep.set("allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(ops))
	rep.set("sim_latency_p95_cycles", simP95)
	rep.set("sim.delivered_packets", float64(delivered))
	rep.set("sim.latency_p50_cycles", simP50)
	rep.set("sim.accepted_flits_per_pe_cycle",
		float64((delivered+bcastCopies)*int64(w.size))/(float64(livePEs)*float64(cycles)))
	rep.set("sim.backlog_end", float64(backlogs[ops-1]))
	rep.note("op time p50 %.2f p75 %.2f p90 %.2f p95 %.2f p98 %.2f ms", percentile(durs, 50)/1e6, percentile(durs, 75)/1e6, percentile(durs, 90)/1e6, percentile(durs, 95)/1e6, percentile(durs, 98)/1e6)
	rep.note("ops %d in %.3f s (%d simulated cycles each); p95 has %d samples beyond it; source backlog %.0f flits over the first %d ops, %.0f over the last; set-ups %v",
		ops, wall.Seconds(), w.opCycles, ops-int(math.Ceil(0.95*float64(ops))), first, n, last, setups)
	rep.digest = fmt.Sprintf("seed=%d ops=%d cycles=%d delivered=%d state_hash=%016x schedule=%016x",
		o.seed, ops, cycles, delivered, stateHash, schedule)
	rep.note("sim_digest %s", rep.digest)
	if tr == nil {
		return rep, nil
	}

	// Per-layer numbers.
	rep.set("core.new_machine_ms", tr.percentile(spNewMachine, 50)/1e6)
	rep.set("core.add_fault_ms", tr.percentile(spAddFault, 50)/1e6)
	rep.set("routing.compile_tables_ms", tr.percentile(spCompileTables, 50)/1e6)
	rep.set("traffic.warmup_ms", tr.percentile(spWarmup, 50)/1e6)

	if onOps > 0 && offOps > 0 {
		rep.set("trace.overhead_share", 1-(offNs/offOps)/(onNs/onOps))
	}
	if packets > 0 {
		rep.set("core.send_ns_per_packet", float64(tr.total(spSend)-tr.total(spBroadcast))/float64(packets))
	}
	rep.set("core.broadcast_us_per_call", tr.mean(spBroadcast)/1e3)
	rep.set("engine.step_us_mean", tr.mean(spStep)/1e3)
	rep.set("engine.step_us_p95", tr.percentile(spStep, 95)/1e3)
	if onNs > 0 {
		rep.set("engine.step_share", float64(tr.total(spStep))/onNs)
	}
	visits, skipped := ctr1.Visits()-ctr0.Visits(), ctr1.Skipped()-ctr0.Skipped()
	visitsPerCycle := float64(visits) / float64(cycles)
	rep.set("engine.visits_per_cycle", visitsPerCycle)
	if visitsPerCycle > 0 {
		rep.set("engine.ns_per_visit", tr.mean(spStep)/visitsPerCycle)
	}
	rep.set("engine.skip_ratio", float64(skipped)/float64(visits+skipped))
	rep.set("engine.route_states_allocated_per_kcycle",
		1000*float64(ctr1.RouteStatesAllocated-ctr0.RouteStatesAllocated)/float64(cycles))
	rep.set("engine.allocs_per_step", float64(ms1.Mallocs-ms0.Mallocs)/steps)
	rep.set("engine.alloc_bytes_per_step", float64(ms1.TotalAlloc-ms0.TotalAlloc)/steps)
	rep.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	rep.set("runtime.gc_pause_ms_total", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	rep.set("stats.harvest_us_per_op", tr.mean(spHarvest)/1e3)
	rep.set("engine.state_hash_us", tr.mean(spStateHash)/1e3)
	rep.set("checkpoint.snapshot_ms", tr.mean(spSnapshot)/1e6)
	rep.set("checkpoint.snapshot_kb", snapKB)
	rep.set("checkpoint.restore_ms", tr.mean(spRestore)/1e6)

	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	rep.set("runtime.heap_live_mb", float64(live.HeapAlloc)/(1<<20))

	path, err := tr.write(o.outDir, w.name, o.seed)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	rep.note("trace written to %s (%d spans)", path, len(tr.spans))
	return rep, nil
}

// probeRouting times the routing layer alone on the workload's machine:
// one RouteRouter call of the installed policy per sampled header, the
// static path walk, and the dependence-graph analysis of the policy.
func (k *kernelRun) probeRouting(seed int64, rep *report) {
	const decideSamples, pathSamples = 10_000, 1_000
	rng := rand.New(rand.NewSource(seed + 1))
	net := k.m.Network()
	pol := net.Policy()
	in := net.RouterPortPE()
	hs := make([]flit.Header, decideSamples)
	for i := range hs {
		s := rng.Intn(len(k.live))
		d := rng.Intn(len(k.live) - 1)
		if d >= s {
			d++
		}
		hs[i] = flit.Header{PacketID: uint64(i + 1), Src: k.live[s], Dst: k.live[d], RC: flit.RCNormal, Size: k.w.size}
	}
	k.tr.begin(spDecide)
	t0 := time.Now()
	for i := range hs {
		dec, err := pol.RouteRouter(net, hs[i].Src, in, &hs[i])
		if err != nil {
			rep.problem("routing decision for %v -> %v: %v", hs[i].Src, hs[i].Dst, err)
			break
		}
		k.sink += int64(len(dec.Outs))
	}
	rep.set("routing.decide_ns", float64(time.Since(t0))/decideSamples)
	k.tr.end()

	k.tr.begin(spUnicastPath)
	t0 = time.Now()
	for i := 0; i < pathSamples; i++ {
		path, err := k.m.Policy().UnicastPath(hs[i].Src, hs[i].Dst)
		if err != nil {
			rep.problem("unicast path %v -> %v: %v", hs[i].Src, hs[i].Dst, err)
			break
		}
		k.sink += int64(len(path))
	}
	rep.set("routing.unicast_path_us", float64(time.Since(t0))/pathSamples/1e3)
	k.tr.end()

	// The analysis walks every source-destination pair; on the 2048-PE
	// machine it takes most of a minute, so it is left out there.
	if k.w.shape.Size() > cdgMaxPEs {
		return
	}
	k.tr.begin(spCDG)
	t0 = time.Now()
	res, err := cdg.Analyze(k.m.Policy(), k.w.shape, false)
	rep.set("cdg.analyze_ms", ms(time.Since(t0)))
	k.tr.end()
	if err != nil {
		rep.problem("cdg.Analyze: %v", err)
	} else if !res.Acyclic {
		rep.problem("cdg.Analyze found a dependence cycle: %v", res.Cycle)
	}
}
