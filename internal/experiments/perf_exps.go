package experiments

import (
	"fmt"

	"sr2201/internal/core"
	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/stats"
	"sr2201/internal/traffic"
)

func init() {
	register(Experiment{ID: "E6", Title: "Crossbar vs mesh vs torus under load", Paper: "Sec. 3 / ref [7]", run: runE6})
	register(Experiment{ID: "E7", Title: "Detour overhead under load", Paper: "Sec. 4", run: runE7})
	register(Experiment{ID: "E8", Title: "Broadcast serialization scaling", Paper: "Sec. 3.2", run: runE8})
	register(Experiment{ID: "E9", Title: "Conflict-free remapping of guest topologies", Paper: "Sec. 3.1", run: runE9})
	register(Experiment{ID: "E10", Title: "Structural scaling of the MD crossbar", Paper: "Sec. 3.1", run: runE10})
}

// newMachine builds a machine of the named topology for the load
// experiments.
func newMachine(shape geom.Shape, topology string) (*core.Machine, error) {
	return core.NewMachine(core.Config{Shape: shape, Topology: topology, StallThreshold: 512})
}

// newCrossbar builds an MD crossbar machine for the load experiments.
func newCrossbar(shape geom.Shape) (*core.Machine, error) {
	return newMachine(shape, core.TopologyMDX)
}

// drive runs one Bernoulli workload and returns the result.
func drive(t *core.Machine, p traffic.Pattern, rate float64, size int, warmup, measure int64, seed int64) traffic.Result {
	d := traffic.Driver{
		M: t, Pattern: p, Rate: rate, Size: size,
		Seed: seed, Warmup: warmup, Measure: measure,
	}
	return d.Run()
}

// runE6 sweeps offered load on the 8x8 crossbar, mesh and torus under
// uniform and transpose traffic. Shape criterion (the Section 3 claim backed
// by reference [7]): the crossbar accepts at least as much peak throughput
// as the torus, and the torus at least as much as the mesh, with fewer
// conflicts on the crossbar throughout.
func runE6(r *Report, opt Options) error {
	shape := geom.MustShape(8, 8)
	loads := []float64{0.01, 0.02, 0.04, 0.08, 0.12, 0.16, 0.24, 0.32}
	warmup, measure := int64(500), int64(2000)
	if opt.Quick {
		shape = geom.MustShape(6, 6)
		loads = []float64{0.02, 0.08, 0.2}
		warmup, measure = 200, 600
	}

	type topo struct{ name, topology string }
	topos := []topo{{"crossbar", core.TopologyMDX}, {"torus", "torus"}, {"mesh", "mesh"}}
	patterns := []func() traffic.Pattern{
		func() traffic.Pattern { return traffic.Uniform{Shape: shape} },
		func() traffic.Pattern { return traffic.Transpose{Shape: shape} },
	}

	peak := map[string]float64{}
	lowLat := map[string]float64{}
	for _, mkPat := range patterns {
		pat := mkPat()
		tbl := stats.NewTable(fmt.Sprintf("E6 %s on %s: offered load vs accepted throughput and latency", pat.Name(), shape),
			"load", "topology", "throughput", "mean lat", "p95 lat", "backlog", "conflicts")
		// Each load x topology cell is an independent machine + driver run;
		// fan them out and assemble rows in cell order.
		type cell struct {
			load float64
			tp   topo
		}
		var cells []cell
		for _, load := range loads {
			for _, tp := range topos {
				cells = append(cells, cell{load, tp})
			}
		}
		results, err := sweepCells(opt, len(cells), func(i int) (traffic.Result, error) {
			t, err := newMachine(shape, cells[i].tp.topology)
			if err != nil {
				return traffic.Result{}, err
			}
			res := drive(t, pat, cells[i].load, 8, warmup, measure, 1234)
			if res.Deadlocked {
				return traffic.Result{}, fmt.Errorf("E6: %s deadlocked at load %.2f", cells[i].tp.name, cells[i].load)
			}
			return res, nil
		})
		if err != nil {
			return err
		}
		for i, res := range results {
			load, name := cells[i].load, cells[i].tp.name
			tbl.AddRow(load, name, res.Throughput, res.Latency.Mean(), res.Latency.Percentile(95), res.Backlog, res.Conflicts)
			if res.Throughput > peak[name] {
				peak[name] = res.Throughput
			}
			if load == loads[0] && pat.Name() == "uniform" {
				lowLat[name] = res.Latency.Mean()
			}
		}
		r.Tables = append(r.Tables, tbl)
	}
	r.Notef("peak accepted throughput (pkts/PE/cycle): crossbar=%.4f torus=%.4f mesh=%.4f",
		peak["crossbar"], peak["torus"], peak["mesh"])
	r.Notef("low-load mean latency (uniform): crossbar=%.1f torus=%.1f mesh=%.1f",
		lowLat["crossbar"], lowLat["torus"], lowLat["mesh"])
	r.Pass = peak["crossbar"] >= peak["torus"] && peak["torus"] >= peak["mesh"] &&
		lowLat["crossbar"] <= lowLat["mesh"]
	return nil
}

// runE7 measures what the detour facility costs: latency and throughput with
// and without one faulty router, at increasing load, plus the latency of the
// detoured packets themselves. Shape criterion: the network keeps operating
// (no deadlock, small throughput loss), with a bounded latency penalty
// confined mostly to detoured packets.
func runE7(r *Report, opt Options) error {
	shape := geom.MustShape(8, 8)
	loads := []float64{0.02, 0.05, 0.1, 0.15}
	warmup, measure := int64(500), int64(2000)
	if opt.Quick {
		shape = geom.MustShape(6, 6)
		loads = []float64{0.02, 0.1}
		warmup, measure = 200, 600
	}
	bad := shape.CoordOf(shape.Size()/2 + 1)

	tbl := stats.NewTable(fmt.Sprintf("E7 detour overhead on %s, faulty router %v", shape, bad),
		"load", "config", "throughput", "mean lat", "p95 lat", "detoured", "detoured mean lat")
	ok := true
	type cell struct {
		load      float64
		withFault bool
	}
	type outcome struct {
		res    traffic.Result
		detLat stats.Latency
	}
	var cells []cell
	for _, load := range loads {
		for _, withFault := range []bool{false, true} {
			cells = append(cells, cell{load, withFault})
		}
	}
	results, err := sweepCells(opt, len(cells), func(i int) (*outcome, error) {
		m, err := newCrossbar(shape)
		if err != nil {
			return nil, err
		}
		if cells[i].withFault {
			if err := m.AddFault(fault.RouterFault(bad)); err != nil {
				return nil, err
			}
		}
		var o outcome
		m.OnDeliver = func(d core.Delivery) {
			if d.Detoured {
				o.detLat.Add(d.Latency)
			}
		}
		o.res = drive(m, traffic.Uniform{Shape: shape}, cells[i].load, 8, warmup, measure, 99)
		return &o, nil
	})
	if err != nil {
		return err
	}
	for i, o := range results {
		name := "fault-free"
		if cells[i].withFault {
			name = "one faulty RTC"
		}
		if o.res.Deadlocked {
			ok = false
		}
		tbl.AddRow(cells[i].load, name, o.res.Throughput, o.res.Latency.Mean(), o.res.Latency.Percentile(95), o.detLat.Count(), o.detLat.Mean())
	}
	r.Tables = append(r.Tables, tbl)
	r.Pass = ok
	r.Notef("detoured packets pay extra crossbar hops via the D-XB; non-detoured traffic is largely unaffected at low load")
	return nil
}

// runE8 injects k simultaneous broadcasts and measures completion time.
// Shape criterion: completion grows roughly linearly in k (the S-XB replays
// one broadcast at a time), i.e. the increments stay within a band.
func runE8(r *Report, opt Options) error {
	shape := geom.MustShape(8, 8)
	maxK := 8
	if opt.Quick {
		shape = geom.MustShape(6, 6)
		maxK = 4
	}
	tbl := stats.NewTable(fmt.Sprintf("E8 k simultaneous broadcasts on %s (8-flit packets)", shape),
		"k", "completion cycles", "increment", "copies")
	type e8Result struct {
		cycle  int64
		copies int
	}
	results, err := sweepCells(opt, maxK, func(i int) (e8Result, error) {
		k := i + 1
		m, err := newCrossbar(shape)
		if err != nil {
			return e8Result{}, err
		}
		for j := 0; j < k; j++ {
			src := shape.CoordOf((j * 7) % shape.Size())
			if _, _, err := m.Broadcast(src, 8); err != nil {
				return e8Result{}, err
			}
		}
		out := m.Run(runBudget)
		if !out.Drained {
			return e8Result{}, fmt.Errorf("E8: k=%d did not drain", k)
		}
		return e8Result{out.Cycle, len(m.Deliveries())}, nil
	})
	if err != nil {
		return err
	}
	var prev int64
	var increments []int64
	for i, res := range results {
		k := i + 1
		inc := res.cycle - prev
		if k > 1 {
			increments = append(increments, inc)
		}
		tbl.AddRow(k, res.cycle, inc, res.copies)
		prev = res.cycle
	}
	r.Tables = append(r.Tables, tbl)
	// Linearity: increments positive and within 3x of each other.
	minInc, maxInc := increments[0], increments[0]
	for _, inc := range increments {
		if inc < minInc {
			minInc = inc
		}
		if inc > maxInc {
			maxInc = inc
		}
	}
	r.Pass = minInc > 0 && maxInc <= 3*minInc
	r.Notef("each extra broadcast adds ~%d-%d cycles: the S-XB replays them one-by-one in order of arrival", minInc, maxInc)
	return nil
}

// runE9 embeds guest-topology neighbor patterns and counts switch output
// conflicts when every PE transmits simultaneously. Shape criterion: the MD
// crossbar remaps ring, mesh and hypercube traffic with zero conflicts,
// while the mesh baseline conflicts on the hypercube pattern.
func runE9(r *Report, opt Options) error {
	shape := geom.MustShape(8, 8)
	if opt.Quick {
		shape = geom.MustShape(4, 4)
	}
	bits := 0
	for 1<<bits < shape.Size() {
		bits++
	}
	patterns := []traffic.Pattern{
		traffic.RingNeighbor{Shape: shape},
		traffic.MeshNeighbor{Shape: shape, Dim: 0},
		traffic.MeshNeighbor{Shape: shape, Dim: 1},
		traffic.HypercubeNeighbor{Shape: shape, Bit: 1},
		traffic.HypercubeNeighbor{Shape: shape, Bit: bits / 2},
		traffic.TreeParent{Shape: shape},
	}

	// oneShot injects one packet from every sender simultaneously and
	// reports contention: simultaneous-request conflicts and blocked cycles
	// (headers or streams stalled behind an owned channel).
	oneShot := func(t *core.Machine, p traffic.Pattern) (conflicts, blocked, cycles int64, err error) {
		shape := t.Shape()
		shape.Enumerate(func(src geom.Coord) bool {
			if dst, ok := p.Dest(src, nil); ok {
				_, err = t.Send(src, dst, 8)
				if err != nil {
					return false
				}
			}
			return true
		})
		if err != nil {
			return 0, 0, 0, err
		}
		out := t.Run(runBudget)
		if !out.Drained {
			return 0, 0, 0, fmt.Errorf("E9: %s did not drain", p.Name())
		}
		for _, sw := range t.Engine().Switches() {
			for _, op := range sw.Out {
				conflicts += op.ConflictCycles
			}
			for _, ip := range sw.In {
				blocked += ip.BlockedCycles()
			}
		}
		return conflicts, blocked, out.Cycle, nil
	}

	tbl := stats.NewTable(fmt.Sprintf("E9 one-shot neighbor exchange on %s: contention", shape),
		"pattern", "xbar conflicts", "xbar blocked", "xbar cycles", "mesh conflicts", "mesh blocked", "mesh cycles")
	pass := true
	meshContends := false
	type e9Result struct {
		cx, bx, tx int64
		cm, bm, tm int64
	}
	results, err := sweepCells(opt, len(patterns), func(i int) (e9Result, error) {
		p := patterns[i]
		mx, err := newCrossbar(shape)
		if err != nil {
			return e9Result{}, err
		}
		cx, bx, tx, err := oneShot(mx, p)
		if err != nil {
			return e9Result{}, err
		}
		mm, err := newMachine(shape, "mesh")
		if err != nil {
			return e9Result{}, err
		}
		cm, bm, tm, err := oneShot(mm, p)
		if err != nil {
			return e9Result{}, err
		}
		return e9Result{cx, bx, tx, cm, bm, tm}, nil
	})
	if err != nil {
		return err
	}
	for i, res := range results {
		p := patterns[i]
		cx, bx, cm, bm := res.cx, res.bx, res.cm, res.bm
		tbl.AddRow(p.Name(), res.cx, res.bx, res.tx, res.cm, res.bm, res.tm)
		switch p.(type) {
		case traffic.RingNeighbor, traffic.MeshNeighbor, traffic.HypercubeNeighbor:
			if cx != 0 || bx != 0 {
				pass = false
			}
		}
		if _, isHC := p.(traffic.HypercubeNeighbor); isHC && (cm > 0 || bm > 0) {
			meshContends = true // long hypercube exchanges serialize on mesh links
		}
	}
	pass = pass && meshContends
	r.Tables = append(r.Tables, tbl)
	r.Pass = pass
	r.Notef("conflict-free guest topologies stay conflict-free on the crossbar; the mesh serializes hypercube exchanges")
	r.Notef("tree reduction converges two children on one parent port, so it conflicts on any network (reported, not asserted)")
	return nil
}

// runE10 tabulates the structural claims of Section 3.1: hop counts bounded
// by d, router port counts of d+1, switch and port totals, and the
// hypercube degenerate case d = log2 n.
func runE10(r *Report, opt Options) error {
	configs := [][]int{
		{64},
		{8, 8},
		{4, 4, 4},
		{2, 2, 2, 2, 2, 2}, // d = log2 n: the hypercube case
	}
	if opt.Quick {
		configs = configs[:3]
	}
	tbl := stats.NewTable("E10 structures with n = 64 PEs",
		"shape", "d", "router ports", "crossbars", "max hops", "avg hops", "total switch ports")
	pass := true
	for _, cfgShape := range configs {
		shape := geom.MustShape(cfgShape...)
		m, err := newCrossbar(shape)
		if err != nil {
			return err
		}
		maxHops, sumHops, pairs := 0, 0, 0
		shape.Enumerate(func(src geom.Coord) bool {
			shape.Enumerate(func(dst geom.Coord) bool {
				h := src.Distance(dst)
				if h > maxHops {
					maxHops = h
				}
				sumHops += h
				pairs++
				return true
			})
			return true
		})
		_, xbs := m.Network().SwitchCount()
		tbl.AddRow(shape.String(), shape.Dims(), shape.Dims()+1, xbs,
			maxHops, float64(sumHops)/float64(pairs), m.Network().PortCount())
		if maxHops > shape.Dims() {
			pass = false
		}
	}
	r.Tables = append(r.Tables, tbl)
	r.Pass = pass
	r.Notef("max crossbar hops never exceed d; router ports stay at d+1 (vs log2(n)+1 for a hypercube router)")
	r.Notef("at d = log2 n the MD crossbar's 2-point crossbars degenerate into direct router-router links: the hypercube")
	return nil
}

// --- A-group ablations ---

func init() {
	register(Experiment{ID: "A1", Title: "Fan-out acquisition: atomic vs incremental", Paper: "DESIGN.md ablation", run: runA1})
	register(Experiment{ID: "A2", Title: "Buffer depth: wormhole vs virtual cut-through", Paper: "DESIGN.md ablation", run: runA2})
}

// runA1 compares per-switch fan-out acquisition modes. Shape criterion: with
// atomic acquisition the serialized scheme drains; with incremental
// (hold-and-wait inside one switch) even two serialized broadcasts can wedge
// at the S-XB itself — the hardware's all-at-once fan engagement matters.
func runA1(r *Report, opt Options) error {
	shape := geom.MustShape(4, 4)
	tbl := stats.NewTable("A1 two simultaneous broadcasts on 4x4",
		"acquisition", "scheme", "outcome", "cycles")
	type cfg struct {
		acq   engine.AcquireMode
		naive bool
	}
	cases := []cfg{
		{engine.AcquireAtomic, false},
		{engine.AcquireAtomic, true},
		{engine.AcquireIncremental, false},
		{engine.AcquireIncremental, true},
	}
	outcomes := map[[2]bool]bool{} // [incremental, naive] -> deadlocked
	for _, c := range cases {
		m, err := core.NewMachine(core.Config{
			Shape:          shape,
			NaiveBroadcast: c.naive,
			Engine:         engine.Config{BufferDepth: 2, Acquire: c.acq},
			StallThreshold: 256,
		})
		if err != nil {
			return err
		}
		if _, _, err := m.Broadcast(geom.Coord{1, 0}, 8); err != nil {
			return err
		}
		if _, _, err := m.Broadcast(geom.Coord{2, 3}, 8); err != nil {
			return err
		}
		out := m.Run(runBudget)
		acq := "atomic"
		if c.acq == engine.AcquireIncremental {
			acq = "incremental"
		}
		scheme := "S-XB serialized"
		if c.naive {
			scheme = "naive tree"
		}
		tbl.AddRow(acq, scheme, outcomeWord(out), out.Cycle)
		outcomes[[2]bool{c.acq == engine.AcquireIncremental, c.naive}] = out.Deadlocked || out.Stalled
	}
	r.Tables = append(r.Tables, tbl)
	r.Pass = !outcomes[[2]bool{false, false}] && // atomic + serialized drains
		outcomes[[2]bool{false, true}] && // atomic + naive deadlocks across switches
		outcomes[[2]bool{true, true}] // incremental + naive deadlocks too
	r.Notef("the naive tree deadlocks under both modes (the cycle spans crossbars); the serialized scheme drains under both here because the S-XB's per-port arbiters agree on one winner — atomic acquisition removes even the possibility of a split fan")
	return nil
}

// runA2 sweeps input buffer depth against a fixed 8-flit packet size at a
// moderate load. Shape criterion: latency does not increase with depth, and
// deep buffers (virtual cut-through regime) deliver at least the shallow
// (wormhole regime) throughput.
func runA2(r *Report, opt Options) error {
	shape := geom.MustShape(6, 6)
	depths := []int{1, 2, 4, 8, 16}
	warmup, measure := int64(400), int64(1500)
	if opt.Quick {
		depths = []int{1, 4, 16}
		warmup, measure = 200, 500
	}
	tbl := stats.NewTable("A2 buffer depth sweep, 8-flit packets, uniform load 0.1 on 6x6",
		"depth", "regime", "throughput", "mean lat", "p95 lat")
	results, err := sweepCells(opt, len(depths), func(i int) (traffic.Result, error) {
		m, err := core.NewMachine(core.Config{
			Shape:          shape,
			Engine:         engine.Config{BufferDepth: depths[i]},
			StallThreshold: 512,
		})
		if err != nil {
			return traffic.Result{}, err
		}
		return drive(m, traffic.Uniform{Shape: shape}, 0.1, 8, warmup, measure, 7), nil
	})
	if err != nil {
		return err
	}
	var first, last traffic.Result
	for i, res := range results {
		depth := depths[i]
		regime := "wormhole-like"
		if depth >= 8 {
			regime = "virtual cut-through"
		}
		tbl.AddRow(depth, regime, res.Throughput, res.Latency.Mean(), res.Latency.Percentile(95))
		if i == 0 {
			first = res
		}
		last = res
	}
	r.Tables = append(r.Tables, tbl)
	r.Pass = last.Latency.Mean() <= first.Latency.Mean() && last.Throughput >= first.Throughput*0.95
	r.Notef("depth >= packet size decouples blocked packets from upstream channels (virtual cut-through); shallow buffers couple them (wormhole), raising contention latency")
	return nil
}
