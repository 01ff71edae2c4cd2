// Package campaign runs exhaustive resilience campaigns: every single-fault
// placement × fault kind × injection epoch × traffic pattern, each cell a
// fresh machine with a scheduled mid-run fault (internal/inject), fanned
// through the internal/sweep worker pool. Per-cell verdicts — delivered,
// dropped, retransmitted, unreachable-as-predicted, deadlock — aggregate
// into availability and post-fault recovery tables whose rendered text is
// byte-identical at every parallelism level (cells are merged by index, and
// every cell is deterministic).
package campaign

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"sr2201/internal/core"
	"sr2201/internal/deadlock"
	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
	"sr2201/internal/reconfig"
	"sr2201/internal/recovery"
	"sr2201/internal/routing"
	"sr2201/internal/stats"
	"sr2201/internal/sweep"
)

// Pattern is a deterministic traffic pattern: every live PE sends one packet
// per wave to Dest(shape, src). Self-addressed destinations are skipped.
// Patterns are pure functions (no rand), so cells replay identically.
type Pattern struct {
	Name string
	Dest func(shape geom.Shape, src geom.Coord) geom.Coord
}

// Shift returns the pattern sending each PE to the PE k places later in
// enumeration order (wrapping), a lattice-wide permutation that crosses both
// dimensions for most k.
func Shift(k int) Pattern {
	return Pattern{
		Name: fmt.Sprintf("shift+%d", k),
		Dest: func(shape geom.Shape, src geom.Coord) geom.Coord {
			return shape.CoordOf((shape.Index(src) + k) % shape.Size())
		},
	}
}

// Reverse returns the pattern pairing PE i with PE n-1-i (bit-reversal-like
// full-distance permutation).
func Reverse() Pattern {
	return Pattern{
		Name: "reverse",
		Dest: func(shape geom.Shape, src geom.Coord) geom.Coord {
			return shape.CoordOf(shape.Size() - 1 - shape.Index(src))
		},
	}
}

// Pair returns the single-flow pattern: only src sends, to dst (every other
// PE maps to itself and is skipped). It reproduces paper figures built
// around one specific route — the R-series uses it for the Fig. 9 detoured
// p2p.
func Pair(src, dst geom.Coord, dims int) Pattern {
	return Pattern{
		// The name round-trips through ParsePattern: "pair:0,1>2,2".
		Name: fmt.Sprintf("pair:%s>%s",
			strings.Trim(src.In(dims), "()"), strings.Trim(dst.In(dims), "()")),
		Dest: func(shape geom.Shape, s geom.Coord) geom.Coord {
			if s == src {
				return dst
			}
			return s
		},
	}
}

// Broadcast schedules one broadcast injection into a cell's workload: the
// paper's Fig. 9 deadlock needs a broadcast crossing a detoured unicast, so
// recovery cells mix both traffic kinds.
type Broadcast struct {
	// Cycle is the injection time (skipped broadcasts from dead sources are
	// counted refused, not fatal).
	Cycle int64
	// Src is the broadcast origin PE.
	Src geom.Coord
	// Size in flits (0 = core default).
	Size int
}

// Hooks are a run's run-time attachments: cancellation and the progress
// feeds. They shape no artifact; a Spec or Config embeds them so every
// runner takes them the same way.
type Hooks struct {
	// Ctx, if non-nil, cancels the run: a cell stops between cycles (handing
	// its Mark to the park callback, when it has one), a campaign also
	// between cells, and the runner returns ctx.Err().
	Ctx context.Context
	// OnCycle, if non-nil, is called every progressInterval cycles of a cell
	// with the engine's hot-path counters.
	OnCycle func(cycle int64, ctr engine.Counters)
	// OnRecovery, if non-nil, is called for every recovery event (after its
	// report line is written, in a single run).
	OnRecovery func(recovery.Event)
	// OnReconfig, if non-nil, is called for every reconfiguration event as
	// the manager takes it.
	OnReconfig func(reconfig.Event)
}

// progressInterval is how often a cell samples Hooks.OnCycle.
const progressInterval = 1024

// Spec describes one run: a machine variant, a fault schedule, and a wave
// workload. A campaign cell, mdxfault's single mode, a fault job and a
// replay recording are all one Spec.
type Spec struct {
	Shape geom.Shape
	// Topology selects the cell's interconnect (see core.Config.Topology):
	// "" or "mdx" is the paper's MD crossbar, "hyperx" and "fullmesh" the
	// direct-link lattices. Crossbar-only workload features (broadcasts,
	// S-XB/D-XB variants) are rejected on direct-link topologies.
	Topology string
	// Events is the fault schedule (usually a single placement at one epoch).
	Events []inject.Event
	// Pattern chooses each wave's destinations.
	Pattern Pattern
	// Waves is the number of traffic waves; wave w injects at cycle w*Gap
	// (< 1 selects one wave).
	Waves int
	// Gap is the cycle spacing between waves (< 1 selects 1).
	Gap int64
	// PacketSize in flits (0 = core default).
	PacketSize int
	// Inject tunes recovery (retransmission etc.).
	Inject inject.Options
	// Horizon caps the run (<= 0 selects 50k cycles).
	Horizon int64
	// KeepDeliveries retains per-delivery records (for latency-recovery
	// curves); off by default to keep exhaustive campaigns lean.
	KeepDeliveries bool
	// Recovery enables the liveness layer: a confirmed wait cycle is
	// dissolved by sacrificing the lowest-ID packet on it (retransmitted by
	// the inject machinery), with livelock escalation at the per-packet cap.
	Recovery recovery.Options
	// Preset faults are installed before any traffic (static AddFault), the
	// paper's fault-known-at-boot scenario; Events remain the dynamic
	// mid-run schedule.
	Preset []fault.Fault
	// Broadcasts schedules broadcast injections alongside the unicast
	// waves. The run works on a copy in ascending cycle order.
	Broadcasts []Broadcast
	// SXB/DXB/DXBSeparate/NaiveBroadcast forward to core.Config,
	// selecting the machine variant the cell runs on. Zero values are the
	// paper's deadlock-free defaults. The replay tooling records them so a
	// divergence bisection can compare two variants of one workload.
	SXB, DXB       geom.Coord
	DXBSeparate    bool
	NaiveBroadcast bool
	// VCs/Adaptive forward to core.Config: virtual channels per wire and
	// escape-VC adaptive routing (see core.Config for the constraints).
	VCs      int
	Adaptive bool
	// Reconfig enables online routing-table reconfiguration (see
	// core.Config.Reconfig for the modes and constraints): mid-run faults
	// and/or confirmed deadlocks recompile the policy and swap it in behind
	// a certified transition instead of rebuilding in place.
	Reconfig string
	Hooks
}

// SingleSpec is the historical name of a Spec handed to RunSingle.
type SingleSpec = Spec

// normalize applies the defaults and checks the workload. Rejections are
// FieldErrors in the resolver's vocabulary.
func (s *Spec) normalize() error {
	if s.Shape.Dims() == 0 {
		return fieldErrf("shape", "spec needs a shape")
	}
	if s.Pattern.Dest == nil {
		return fieldErrf("pattern", "spec needs a pattern")
	}
	if s.Waves < 1 {
		s.Waves = 1
	}
	if s.Gap < 1 {
		s.Gap = 1
	}
	if s.Horizon <= 0 {
		s.Horizon = 50_000
	}
	if s.Topology != "" && s.Topology != core.TopologyMDX && len(s.Broadcasts) > 0 {
		return fieldErrf("broadcasts", "topology %q has no hardware broadcast; remove the broadcast schedule", s.Topology)
	}
	for _, b := range s.Broadcasts {
		if b.Cycle < 0 {
			return fieldErrf("broadcasts", "negative broadcast cycle %d", b.Cycle)
		}
	}
	// Cycle order, insertion order breaking ties — like the fault schedule.
	// The caller's slice is shared (every cell of a campaign gets the same
	// one, from worker goroutines), so sort a copy.
	if len(s.Broadcasts) > 1 {
		bs := s.Broadcasts
		byCycle := func(i, j int) bool { return bs[i].Cycle < bs[j].Cycle }
		if !sort.SliceIsSorted(bs, byCycle) {
			bs = append([]Broadcast(nil), bs...)
			sort.SliceStable(bs, byCycle)
			s.Broadcasts = bs
		}
	}
	return nil
}

// machineConfig is the core.Config the spec's machine is built from.
func (s *Spec) machineConfig() core.Config {
	return core.Config{
		Shape:          s.Shape,
		Topology:       s.Topology,
		SXB:            s.SXB,
		DXB:            s.DXB,
		DXBSeparate:    s.DXBSeparate,
		NaiveBroadcast: s.NaiveBroadcast,
		VCs:            s.VCs,
		Adaptive:       s.Adaptive,
		PacketSize:     s.PacketSize,
		StallThreshold: s.Inject.StallThreshold,
		Reconfig:       s.Reconfig,
	}
}

// CellResult is one cell's verdict.
type CellResult struct {
	Fault   fault.Fault
	Epoch   int64
	Pattern string

	// Offered counts send attempts from live PEs; Accepted the ones the NIA
	// took; Refused the ErrUnreachable refusals (expected post-fault for
	// destinations the fault bits rule out); RefusedOther any other refusal
	// (must stay zero).
	Offered, Accepted, Refused, RefusedOther int

	// Delivered counts unicast packets consumed at PEs (originals +
	// recoveries); broadcast copies are accounted separately so the
	// availability ratio stays Delivered/Accepted.
	Delivered int
	// Stats is the injector's loss/recovery accounting.
	Stats inject.Stats

	// Broadcasts counts scheduled broadcast injections that were issued;
	// BroadcastsRefused the ones the policy declined (dead origin).
	// BroadcastCopiesExpected sums the copies each issued broadcast owed;
	// BroadcastCopies the copies actually consumed at PEs.
	Broadcasts              int
	BroadcastsRefused       int
	BroadcastCopiesExpected int
	BroadcastCopies         int

	// Recoveries counts deadlock victims sacrificed by the recovery layer;
	// Livelocked marks a cell abandoned at the per-packet recovery cap
	// (recovery.ErrLivelock class). Livelocked implies Stalled and
	// Deadlocked.
	Recoveries int
	Livelocked bool

	// ReconfigEnabled marks a cell run with online reconfiguration;
	// Reconfigured counts committed (hot) table swaps and ReconfigFellBack
	// the attempts degraded to rebuild-in-place.
	ReconfigEnabled  bool
	Reconfigured     int
	ReconfigFellBack int

	// SourceDeadPairs/DestDeadPairs/UnreachablePairs is the per-pair
	// reachability classification of the pattern against the final fault
	// set (recovery.AnalyzeReachability): exact graceful-degradation
	// reporting when a second fault breaks the detour guarantee.
	SourceDeadPairs  int
	DestDeadPairs    int
	UnreachablePairs int

	// PredictedUnreachablePerWave is the static post-fault prediction: live
	// source PEs whose pattern destination the rebuilt policy reports
	// unreachable. WavesAfterFault counts waves injected strictly after the
	// (first) fault epoch. UnreachableAsPredicted is the verdict that the
	// observed refusals match prediction × waves.
	PredictedUnreachablePerWave int
	WavesAfterFault             int
	UnreachableAsPredicted      bool

	Drained    bool
	Stalled    bool
	Deadlocked bool
	EndCycle   int64

	// Deliveries is retained only when Spec.KeepDeliveries is set.
	Deliveries []core.Delivery
}

// Availability is the fraction of accepted packets finally delivered
// (1 when nothing was accepted).
func (r CellResult) Availability() float64 {
	if r.Accepted == 0 {
		return 1
	}
	return float64(r.Delivered) / float64(r.Accepted)
}

// SimCycles is the simulated cycles the cell consumed, as progress feeds
// count them.
func (r CellResult) SimCycles() int64 { return r.EndCycle }

// CellRun is one run as a stepper — the only wave/broadcast/stall loop in
// the repository — broken at cycle granularity so the caller can mark a
// cycle between Steps and, after a crash, re-execute to it and check that
// the state there is the one it marked.
type CellRun struct {
	spec Spec
	m    *core.Machine
	inj  *inject.Injector
	wd   *deadlock.Watchdog
	sup  *recovery.Supervisor
	mgr  *reconfig.Manager

	res   CellResult
	wave  int
	bNext int // next spec.Broadcasts index
	done  bool

	// preDenied is the per-wave refusal prediction against the preset-only
	// fault set, captured before any dynamic event fires.
	preDenied int
}

// NewCellRun builds the cell's machine and fault schedule without stepping.
func NewCellRun(spec Spec) (*CellRun, error) {
	c, err := newCellRun(spec)
	if err != nil {
		return nil, err
	}
	c.preDenied = recovery.AnalyzeReachability(c.m, c.dest).Denied()
	return c, nil
}

// newCellRun assembles the run — machine, presets, injector, supervisor,
// reconfiguration manager, hooks — short of the reachability prediction
// only Result reports (a single run renders no prediction and skips it).
func newCellRun(spec Spec) (*CellRun, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	m, err := core.NewMachine(spec.machineConfig())
	if err != nil {
		return nil, err
	}
	// Preset faults are known before any traffic — the NIA's fault
	// information is pre-set, so first-wave sends already consult it.
	for _, f := range spec.Preset {
		if err := m.AddFault(f); err != nil {
			return nil, fmt.Errorf("campaign: preset fault: %w", err)
		}
	}
	inj, err := inject.New(m, spec.Events, spec.Inject)
	if err != nil {
		return nil, err
	}
	c := &CellRun{spec: spec, m: m, inj: inj}
	if spec.Recovery.Enabled {
		c.sup = recovery.New(m, inj, spec.Recovery)
		if spec.OnRecovery != nil {
			c.sup.OnEvent(spec.OnRecovery)
		}
	}
	if spec.Reconfig != "" {
		mgr, err := reconfig.New(m)
		if err != nil {
			return nil, err
		}
		if c.sup != nil && mgr.CoversDeadlock() {
			c.sup.OnDeadlock(mgr.OnDeadlock)
		}
		if spec.OnReconfig != nil {
			mgr.OnEvent(spec.OnReconfig)
		}
		c.mgr = mgr
	}
	c.res = CellResult{Pattern: spec.Pattern.Name, ReconfigEnabled: spec.Reconfig != ""}
	if len(spec.Events) > 0 {
		c.res.Fault = spec.Events[0].Fault
		c.res.Epoch = spec.Events[0].Cycle
	} else if len(spec.Preset) > 0 {
		c.res.Fault = spec.Preset[0]
	}
	eng := m.Engine()
	if onCycle := spec.OnCycle; onCycle != nil {
		// Chain behind the injector's own PreCycle hook.
		prev := eng.PreCycle
		eng.PreCycle = func(cy int64) {
			if prev != nil {
				prev(cy)
			}
			if cy%progressInterval == 0 {
				onCycle(cy, eng.Counters())
			}
		}
	}
	c.wd = deadlock.NewWatchdog(eng, spec.Inject.StallThreshold)
	return c, nil
}

// dest is the spec's pattern bound to its shape.
func (c *CellRun) dest(src geom.Coord) geom.Coord { return c.spec.Pattern.Dest(c.spec.Shape, src) }

// Machine exposes the cell's machine (the replay tooling reads its engine).
func (c *CellRun) Machine() *core.Machine { return c.m }

// Done reports whether the cell has reached its verdict.
func (c *CellRun) Done() bool { return c.done }

// Cycle returns the cell's current simulation time.
func (c *CellRun) Cycle() int64 { return c.m.Cycle() }

// Step advances the cell one cycle (injecting any due wave first) and
// returns true when the cell is finished — drained, stalled, or past its
// horizon. Step on a finished cell is a no-op returning true.
func (c *CellRun) Step() bool {
	if c.done {
		return true
	}
	eng := c.m.Engine()
	if eng.Cycle() >= c.spec.Horizon {
		c.done = true
		return true
	}
	if c.wave < c.spec.Waves && eng.Cycle() == int64(c.wave)*c.spec.Gap {
		if int64(c.wave)*c.spec.Gap > c.res.Epoch && len(c.spec.Events) > 0 {
			c.res.WavesAfterFault++
		}
		c.spec.Shape.Enumerate(func(src geom.Coord) bool {
			if !c.m.Alive(src) {
				return true // a dead PE cannot offer traffic
			}
			dst := c.spec.Pattern.Dest(c.spec.Shape, src)
			if dst == src {
				return true
			}
			c.res.Offered++
			if _, err := c.m.Send(src, dst, c.spec.PacketSize); err != nil {
				if errors.Is(err, routing.ErrUnreachable) {
					c.res.Refused++
				} else {
					c.res.RefusedOther++
				}
				return true
			}
			c.res.Accepted++
			return true
		})
		c.wave++
	}
	for c.bNext < len(c.spec.Broadcasts) && c.spec.Broadcasts[c.bNext].Cycle <= eng.Cycle() {
		b := c.spec.Broadcasts[c.bNext]
		c.bNext++
		if _, copies, err := c.m.Broadcast(b.Src, b.Size); err != nil {
			c.res.BroadcastsRefused++
		} else {
			c.res.Broadcasts++
			c.res.BroadcastCopiesExpected += copies
		}
	}
	if c.wave >= c.spec.Waves && c.bNext >= len(c.spec.Broadcasts) && eng.Quiescent() && !c.inj.Pending() {
		c.done = true
		return true
	}
	c.m.Step()
	if c.sup != nil {
		// The liveness layer owns the stall verdict: it recovers what it
		// can and decides only when it cannot (wedge, undissolvable cycle,
		// livelock cap).
		if v := c.sup.Verdict(); v.Decided {
			c.res.Stalled = true
			c.res.Deadlocked = v.Deadlocked
			c.res.Livelocked = v.Livelocked
			c.done = true
		}
	} else if c.wd.Stalled() {
		rep := deadlock.Analyze(eng)
		c.res.Stalled = true
		c.res.Deadlocked = rep.Deadlocked
		c.done = true
	}
	if eng.Cycle() >= c.spec.Horizon {
		c.done = true
	}
	return c.done
}

// Tally computes the cell's counters and verdict flags — everything Result
// reports except the reachability prediction.
func (c *CellRun) Tally() (CellResult, error) {
	res := c.res
	if err := c.inj.Err(); err != nil {
		return res, err
	}
	if c.mgr != nil {
		if err := c.mgr.Err(); err != nil {
			return res, err
		}
		st := c.mgr.Stats()
		res.Reconfigured = st.HotSwaps
		res.ReconfigFellBack = st.Fallbacks
	}
	eng := c.m.Engine()
	res.Drained = c.wave >= c.spec.Waves && c.bNext >= len(c.spec.Broadcasts) &&
		eng.Quiescent() && !c.inj.Pending()
	res.EndCycle = eng.Cycle()
	for _, d := range c.m.Deliveries() {
		if d.Broadcast {
			res.BroadcastCopies++
		} else {
			res.Delivered++
		}
	}
	res.Stats = c.inj.Stats()
	if c.sup != nil {
		res.Recoveries = c.sup.Stats().Recoveries
	}
	if c.spec.KeepDeliveries {
		res.Deliveries = c.m.Deliveries()
	}
	return res, nil
}

// Result computes the cell's verdict. Valid once Done (calling it earlier
// returns the partial counters with the prediction of the current policy).
func (c *CellRun) Result() (CellResult, error) {
	res, err := c.Tally()
	if err != nil {
		return res, err
	}
	// Static prediction: with the final fault set, which live-source sends
	// does the policy refuse? The unreachable-as-predicted verdict demands
	// that the observed refusals are exactly these, once per post-fault
	// wave. (Waves at or before the epoch are sent against the pre-fault
	// policy, which — with no preset faults — refuses nothing.) The
	// reachability analyzer also supplies the per-pair classification for
	// graceful multi-fault degradation reports.
	reach := recovery.AnalyzeReachability(c.m, c.dest)
	res.SourceDeadPairs = reach.SourceDead
	res.DestDeadPairs = reach.DestDead
	res.UnreachablePairs = reach.Unreachable
	res.PredictedUnreachablePerWave = reach.Denied()
	// Waves before the (first) dynamic fault see only the preset faults;
	// waves after it see the final set. With no presets the pre-fault
	// prediction is zero and this reduces to the original formula.
	wavesBefore := c.wave - res.WavesAfterFault
	predictedRefusals := c.preDenied*wavesBefore + res.PredictedUnreachablePerWave*res.WavesAfterFault
	res.UnreachableAsPredicted = res.Refused == predictedRefusals && res.RefusedOther == 0
	return res, nil
}

// Mark is a point of a run: a cycle and the engine's StateHash there. The
// simulator is deterministic, so a parked run is its spec and a Mark:
// resuming rebuilds the run from the spec, re-executes it to the cycle
// (Seek) and checks the hash before going on.
type Mark struct {
	Cycle int64
	Hash  uint64
}

// ErrDiverged classifies a resume whose re-execution does not reach the
// parked state: the run being resumed is not the run that was parked.
var ErrDiverged = errors.New("campaign: re-execution diverged from the parked run")

// parkEvery is how often, in cycles, drive hands a running run's Mark to its
// park callback. A Mark costs one StateHash and saves no work (a resume
// re-executes from cycle 0), so the cadence only bounds how old a dead
// owner's last Mark is.
const parkEvery = 1024

// Mark returns the cell's current cycle and state hash.
func (c *CellRun) Mark() Mark { return Mark{Cycle: c.Cycle(), Hash: c.m.Engine().StateHash()} }

// Seek re-executes a fresh cell to mk.Cycle and checks its state hash there;
// an error wraps ErrDiverged (or is the spec's Ctx.Err()).
func (c *CellRun) Seek(mk Mark) error { return seek(c.spec.Ctx, c, mk) }

// stepper is what drive and seek advance: a CellRun, or a SingleRun
// rendering over one.
type stepper interface {
	Step() bool
	Cycle() int64
	Mark() Mark
}

// drive steps r to its verdict — the one cancel-poll / park loop. ctx (nil
// = never) is polled every 64 cycles; with park non-nil, r's Mark goes to it
// every parkEvery cycles and once more when ctx cancels, before drive
// returns ctx.Err().
func drive(ctx context.Context, r stepper, park func(Mark)) error {
	for !r.Step() {
		cy := r.Cycle()
		if ctx != nil && cy%64 == 0 {
			if err := ctx.Err(); err != nil {
				if park != nil {
					park(r.Mark())
				}
				return err
			}
		}
		if park != nil && cy%parkEvery == 0 {
			park(r.Mark())
		}
	}
	return nil
}

// seek steps r to mk.Cycle, polling ctx like drive, and checks the state
// there. A Mark is only ever taken after a Step that left the run
// unfinished, so a run that finishes first has diverged as surely as one
// that reaches another hash.
func seek(ctx context.Context, r stepper, mk Mark) error {
	for r.Cycle() < mk.Cycle && !r.Step() {
		if ctx != nil && r.Cycle()%64 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	got := r.Mark()
	if got.Cycle != mk.Cycle {
		return fmt.Errorf("%w: the run finished at cycle %d, before the parked cycle %d", ErrDiverged, got.Cycle, mk.Cycle)
	}
	if got.Hash != mk.Hash {
		return fmt.Errorf("%w: at cycle %d the state hash is %016x, the parked run's is %016x", ErrDiverged, mk.Cycle, got.Hash, mk.Hash)
	}
	return nil
}

// RunCell executes one campaign cell to completion.
func RunCell(spec Spec) (CellResult, error) {
	c, err := NewCellRun(spec)
	if err != nil {
		return CellResult{}, err
	}
	if err := drive(spec.Ctx, c, nil); err != nil {
		return CellResult{}, err
	}
	return c.Result()
}

// Placements enumerates every single-fault position of the MD crossbar:
// all routers, then all crossbar lines dimension by dimension, in lattice
// enumeration order.
func Placements(shape geom.Shape) []fault.Fault {
	var out []fault.Fault
	shape.Enumerate(func(c geom.Coord) bool {
		out = append(out, fault.RouterFault(c))
		return true
	})
	for _, l := range shape.Lines() {
		out = append(out, fault.XBFault(l))
	}
	return out
}

// PlacementsFor enumerates every single-fault position of the named
// topology: the MD crossbar has routers and shared crossbars; direct-link
// topologies have routers and per-pair links (all routers first, then
// dimension by dimension every in-line pair, in lattice enumeration order).
func PlacementsFor(topology string, shape geom.Shape) []fault.Fault {
	if topology == "" || topology == core.TopologyMDX {
		return Placements(shape)
	}
	var out []fault.Fault
	shape.Enumerate(func(c geom.Coord) bool {
		out = append(out, fault.RouterFault(c))
		return true
	})
	for dim := 0; dim < shape.Dims(); dim++ {
		for _, l := range shape.LinesAlong(dim) {
			for a := 0; a < shape[dim]; a++ {
				for b := a + 1; b < shape[dim]; b++ {
					out = append(out, fault.LinkFault(l.Point(a), l.Point(b)))
				}
			}
		}
	}
	return out
}

// Config describes a whole campaign: the placement grid crossed with epochs
// and patterns.
type Config struct {
	Shape geom.Shape
	// Topology selects every cell's interconnect (see Spec.Topology) and
	// the placement grid: router+crossbar faults on the MD crossbar,
	// router+link faults on the direct-link topologies.
	Topology string
	// Epochs are the fault-activation cycles to sweep.
	Epochs []int64
	// Patterns are the traffic patterns to sweep.
	Patterns []Pattern
	// Waves/Gap/PacketSize/Inject/Horizon configure every cell (see Spec).
	Waves      int
	Gap        int64
	PacketSize int
	Inject     inject.Options
	Horizon    int64
	// Recovery enables the liveness layer in every cell (see Spec.Recovery).
	Recovery recovery.Options
	// Preset faults are installed in every cell before traffic; placements
	// that collide with a preset are skipped (the cell grid covers the
	// *second* fault). See Spec.Preset.
	Preset []fault.Fault
	// Broadcasts schedules broadcast injections in every cell (see
	// Spec.Broadcasts).
	Broadcasts []Broadcast
	// SXB/DXB/DXBSeparate/NaiveBroadcast select the machine
	// variant every cell runs on (see Spec).
	SXB, DXB       geom.Coord
	DXBSeparate    bool
	NaiveBroadcast bool
	// VCs/Adaptive select virtual channels and escape-VC adaptive routing
	// for every cell (see Spec).
	VCs      int
	Adaptive bool
	// Reconfig enables online reconfiguration in every cell (see
	// Spec.Reconfig).
	Reconfig string
	// Hooks are handed to every cell; the callbacks fire from worker
	// goroutines. Ctx also cancels the campaign between cells.
	Hooks
	// Parallel caps the sweep worker pool (<= 0 = DefaultParallel, 1 = serial).
	Parallel int
	// Budget, if non-nil, draws cell worker slots from a budget shared
	// with other concurrently running sweeps (see sweep.Limiter).
	Budget *sweep.Limiter
	// OnCell, if non-nil, is called once per completed cell with the
	// simulated cycles that cell consumed, from worker goroutines in
	// completion order (progress feed for the job server).
	OnCell func(cycles int64)
	// Store, if non-nil, makes the campaign crash-safe: completed cells are
	// persisted and skipped on a re-run, and a cell that was interrupted
	// re-executes from cycle 0. The aggregate result is identical with or
	// without interruption.
	Store *Store
}

// Result is a completed campaign.
type Result struct {
	Shape geom.Shape
	Cells []CellResult
}

// Run enumerates the grid and fans the cells through the sweep pool.
// Results are merged by cell index, so the campaign — like every sweep in
// this repository — is byte-identical at any parallelism level.
func Run(cfg Config) (*Result, error) {
	if cfg.Shape.Dims() == 0 {
		return nil, fmt.Errorf("campaign: config needs a shape")
	}
	if len(cfg.Epochs) == 0 {
		return nil, fmt.Errorf("campaign: config needs at least one epoch")
	}
	if len(cfg.Patterns) == 0 {
		return nil, fmt.Errorf("campaign: config needs at least one pattern")
	}
	type cellSpec struct {
		f     fault.Fault
		epoch int64
		pat   Pattern
	}
	// Placements colliding with a preset fault cannot be scheduled on top
	// of it: skip them, so a preset campaign sweeps every *additional*
	// fault.
	probe := fault.NewSet(cfg.Shape)
	for _, f := range cfg.Preset {
		if err := probe.Add(f); err != nil {
			return nil, fmt.Errorf("campaign: preset fault: %w", err)
		}
	}
	var grid []cellSpec
	for _, f := range PlacementsFor(cfg.Topology, cfg.Shape) {
		if len(cfg.Preset) > 0 {
			// Add is idempotent, so collision means membership: a placement
			// already in the preset set would re-break broken hardware.
			if (f.Kind == fault.KindRouter && probe.RouterFaulty(f.Coord)) ||
				(f.Kind == fault.KindXB && probe.XBFaulty(f.Line)) ||
				(f.Kind == fault.KindLink && probe.LinkFaulty(f.Coord, f.To)) {
				continue
			}
		}
		for _, epoch := range cfg.Epochs {
			for _, pat := range cfg.Patterns {
				grid = append(grid, cellSpec{f: f, epoch: epoch, pat: pat})
			}
		}
	}
	runCell := func(i int) (CellResult, error) {
		g := grid[i]
		spec := cfg.cell([]inject.Event{{Cycle: g.epoch, Fault: g.f}}, g.pat)
		res, err := runStoredCell(cfg, i, spec)
		if cfg.OnCell != nil && err == nil {
			cfg.OnCell(res.EndCycle)
		}
		return res, err
	}
	cells, err := sweep.DoErr(cfg.Ctx, cfg.Budget, len(grid), cfg.Parallel, runCell)
	if err != nil {
		return nil, err
	}
	return &Result{Shape: cfg.Shape, Cells: cells}, nil
}

// cell is the Spec every cell of the campaign shares, with the fault
// schedule and pattern that tell the cells apart.
func (cfg *Config) cell(events []inject.Event, pat Pattern) Spec {
	return Spec{
		Shape:          cfg.Shape,
		Topology:       cfg.Topology,
		Events:         events,
		Pattern:        pat,
		Waves:          cfg.Waves,
		Gap:            cfg.Gap,
		PacketSize:     cfg.PacketSize,
		Inject:         cfg.Inject,
		Horizon:        cfg.Horizon,
		Recovery:       cfg.Recovery,
		Preset:         cfg.Preset,
		Broadcasts:     cfg.Broadcasts,
		SXB:            cfg.SXB,
		DXB:            cfg.DXB,
		DXBSeparate:    cfg.DXBSeparate,
		NaiveBroadcast: cfg.NaiveBroadcast,
		VCs:            cfg.VCs,
		Adaptive:       cfg.Adaptive,
		Reconfig:       cfg.Reconfig,
		Hooks:          cfg.Hooks,
	}
}

// runStoredCell runs one cell, consulting the store (when configured) for a
// completed result first and persisting the result it computes.
func runStoredCell(cfg Config, i int, spec Spec) (CellResult, error) {
	if cfg.Store == nil {
		return RunCell(spec)
	}
	if res, ok := cfg.Store.LoadResult(i); ok {
		return res, nil
	}
	res, err := RunCell(spec)
	if err != nil {
		return res, err
	}
	if err := cfg.Store.SaveResult(i, res); err != nil {
		return res, err
	}
	return res, nil
}

// Deadlocks counts cells whose run deadlocked.
func (r *Result) Deadlocks() int {
	n := 0
	for _, c := range r.Cells {
		if c.Deadlocked {
			n++
		}
	}
	return n
}

// Stalls counts cells that stalled without a confirmed wait cycle.
func (r *Result) Stalls() int {
	n := 0
	for _, c := range r.Cells {
		if c.Stalled && !c.Deadlocked {
			n++
		}
	}
	return n
}

// Recoveries sums deadlock victims sacrificed across all cells.
func (r *Result) Recoveries() int {
	n := 0
	for _, c := range r.Cells {
		n += c.Recoveries
	}
	return n
}

// Livelocked counts cells abandoned at the per-packet recovery cap.
func (r *Result) Livelocked() int {
	n := 0
	for _, c := range r.Cells {
		if c.Livelocked {
			n++
		}
	}
	return n
}

// Reconfigured sums committed table swaps across all cells.
func (r *Result) Reconfigured() int {
	n := 0
	for _, c := range r.Cells {
		n += c.Reconfigured
	}
	return n
}

// ReconfigFellBack sums attempts degraded to rebuild-in-place across all
// cells.
func (r *Result) ReconfigFellBack() int {
	n := 0
	for _, c := range r.Cells {
		n += c.ReconfigFellBack
	}
	return n
}

// reconfigEnabled reports whether any cell ran with online reconfiguration
// (the summary then carries the reconfiguration counters).
func (r *Result) reconfigEnabled() bool {
	for _, c := range r.Cells {
		if c.ReconfigEnabled {
			return true
		}
	}
	return false
}

// faultClass buckets a placement for aggregation: "rtc", "xb-dim<k>" or
// "link-dim<k>".
func faultClass(f fault.Fault) string {
	switch f.Kind {
	case fault.KindRouter:
		return "rtc"
	case fault.KindLink:
		return fmt.Sprintf("link-dim%d", f.Coord.FirstDiff(f.To, geom.MaxDims))
	}
	return fmt.Sprintf("xb-dim%d", f.Line.Dim)
}

// Table aggregates the cells into the campaign coverage table: one row per
// fault class × epoch × pattern, in first-appearance (grid) order.
func (r *Result) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("single-fault campaign on %v (%d cells)", r.Shape, len(r.Cells)),
		"class", "epoch", "pattern", "cells", "deadlock", "dl-recov", "avail(min)", "avail(mean)",
		"killed", "retx", "recovered", "lost-unreach", "dup", "as-predicted",
	)
	type key struct {
		class   string
		epoch   int64
		pattern string
	}
	type agg struct {
		cells, deadlocks, recoveries         int
		availSum, availMin                   float64
		killed, retx, recovered, lostUnreach int
		dup                                  int
		predicted                            int
	}
	var order []key
	groups := map[key]*agg{}
	for _, c := range r.Cells {
		k := key{faultClass(c.Fault), c.Epoch, c.Pattern}
		g := groups[k]
		if g == nil {
			g = &agg{availMin: 2}
			groups[k] = g
			order = append(order, k)
		}
		g.cells++
		if c.Deadlocked {
			g.deadlocks++
		}
		g.recoveries += c.Recoveries
		av := c.Availability()
		g.availSum += av
		if av < g.availMin {
			g.availMin = av
		}
		g.killed += c.Stats.KilledInFlight + c.Stats.DropsEnRoute
		g.retx += c.Stats.Retransmits
		g.recovered += c.Stats.Recovered
		g.lostUnreach += c.Stats.LostUnreachable
		g.dup += c.Stats.Duplicates
		if c.UnreachableAsPredicted {
			g.predicted++
		}
	}
	for _, k := range order {
		g := groups[k]
		t.AddRow(k.class, k.epoch, k.pattern, g.cells, g.deadlocks, g.recoveries,
			g.availMin, g.availSum/float64(g.cells),
			g.killed, g.retx, g.recovered, g.lostUnreach, g.dup,
			fmt.Sprintf("%d/%d", g.predicted, g.cells))
	}
	return t
}

// String renders the campaign verdict: the coverage table plus the summary
// line the CLI and experiments print.
func (r *Result) String() string {
	var b strings.Builder
	b.WriteString(r.Table().String())
	fmt.Fprintf(&b, "cells=%d deadlocks=%d stalls=%d undrained=%d recoveries=%d livelocked=%d\n",
		len(r.Cells), r.Deadlocks(), r.Stalls(), r.undrained(), r.Recoveries(), r.Livelocked())
	if r.reconfigEnabled() {
		fmt.Fprintf(&b, "reconfigured=%d fellback=%d\n", r.Reconfigured(), r.ReconfigFellBack())
	}
	return b.String()
}

func (r *Result) undrained() int {
	n := 0
	for _, c := range r.Cells {
		if !c.Drained && !c.Stalled {
			n++
		}
	}
	return n
}
