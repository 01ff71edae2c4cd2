package engine_test

// Machines held to the spec: random small MD-crossbar machines with faults,
// unicasts and broadcasts, shrunk to a minimal failing configuration on a
// mismatch; the paper's two deadlocks, which both kernels must wedge
// identically; and lane machines under adaptive routing, whose routing
// functions read output ownership.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/deadlock"
	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
)

// diffConfig is one randomly generated scenario. Everything is value data so
// a scenario can be re-run and shrunk deterministically.
type diffConfig struct {
	shape  []int
	faults []geom.Coord // router faults
	sends  []diffSend
	bcasts []int // source PE index per broadcast
}

type diffSend struct {
	src, dst int // PE indices into shape enumeration order
	size     int
}

func (c diffConfig) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shape=%v faults=%v", c.shape, c.faults)
	for _, s := range c.sends {
		fmt.Fprintf(&b, " send{%d->%d x%d}", s.src, s.dst, s.size)
	}
	for _, s := range c.bcasts {
		fmt.Fprintf(&b, " bcast{%d}", s)
	}
	return b.String()
}

// genDiffConfig draws a random d-dimensional scenario, d in {1,2,3}, every
// dimension at most 4.
func genDiffConfig(rng *rand.Rand) diffConfig {
	d := 1 + rng.Intn(3)
	shape := make([]int, d)
	for i := range shape {
		shape[i] = 2 + rng.Intn(3) // 2..4
	}
	size := 1
	for _, n := range shape {
		size *= n
	}
	cfg := diffConfig{shape: shape}
	for f := rng.Intn(3); f > 0; f-- {
		sh := geom.MustShape(shape...)
		cfg.faults = append(cfg.faults, sh.CoordOf(rng.Intn(size)))
	}
	for s := 1 + rng.Intn(12); s > 0; s-- {
		cfg.sends = append(cfg.sends, diffSend{
			src:  rng.Intn(size),
			dst:  rng.Intn(size),
			size: 1 + rng.Intn(12),
		})
	}
	for b := rng.Intn(2); b > 0; b-- {
		cfg.bcasts = append(cfg.bcasts, rng.Intn(size))
	}
	return cfg
}

// diffMismatch runs one scenario to drain or deadlock beside the spec and
// describes the first divergence, or the first active-set violation between
// cycles, or returns "" when there is none. A scenario that fails to build
// counts as agreement (the shrinker must not wander into invalid configs),
// so the top-level test asserts buildability separately.
func diffMismatch(cfg diffConfig) string {
	m, err := core.NewMachine(core.Config{Shape: geom.MustShape(cfg.shape...), StallThreshold: 256})
	if err != nil {
		return ""
	}
	for _, f := range cfg.faults {
		// Some fault sets are rejected (e.g. they disconnect the S-XB).
		_ = m.AddFault(fault.RouterFault(f))
	}
	sh := m.Shape()
	for _, s := range cfg.sends {
		_, _ = m.Send(sh.CoordOf(s.src), sh.CoordOf(s.dst), s.size)
	}
	for _, b := range cfg.bcasts {
		_, _, _ = m.Broadcast(sh.CoordOf(b), 8)
	}
	var sets error
	m.Engine().PostCycle = func(int64) {
		if sets == nil {
			sets = m.Engine().CheckActiveSets()
		}
	}
	l := newLockstep(m.Engine())
	m.Run(100_000)
	switch {
	case l.err != nil:
		return l.err.Error()
	case sets != nil:
		return fmt.Sprintf("active sets: %v", sets)
	}
	return ""
}

// shrinkDiff greedily removes faults, sends and broadcasts while the config
// keeps failing, returning a minimal failing config to report.
func shrinkDiff(cfg diffConfig, fails func(diffConfig) bool) diffConfig {
	for changed := true; changed; {
		changed = false
		for i := range cfg.faults {
			c := cfg
			c.faults = slices.Delete(slices.Clone(cfg.faults), i, i+1)
			if changed = fails(c); changed {
				cfg = c
				break
			}
		}
		for i := 0; i < len(cfg.sends) && !changed; i++ {
			c := cfg
			c.sends = slices.Delete(slices.Clone(cfg.sends), i, i+1)
			if changed = fails(c); changed {
				cfg = c
			}
		}
		for i := 0; i < len(cfg.bcasts) && !changed; i++ {
			c := cfg
			c.bcasts = slices.Delete(slices.Clone(cfg.bcasts), i, i+1)
			if changed = fails(c); changed {
				cfg = c
			}
		}
	}
	return cfg
}

// TestActiveSetDifferential: random machines match the spec on every cycle,
// and the kernel's active sets hold exactly the busy elements between
// cycles.
func TestActiveSetDifferential(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 15
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		cfg := genDiffConfig(rand.New(rand.NewSource(seed)))
		if _, err := core.NewMachine(core.Config{Shape: geom.MustShape(cfg.shape...)}); err != nil {
			t.Fatalf("seed %d: scenario %s failed to build: %v", seed, cfg, err)
		}
		if msg := diffMismatch(cfg); msg != "" {
			min := shrinkDiff(cfg, func(c diffConfig) bool { return diffMismatch(c) != "" })
			t.Fatalf("seed %d: the kernel diverges from the spec: %s\nminimal failing config: %s", seed, msg, min)
		}
	}
}

// TestDifferentialShrinker pins the shrinker itself: fed a config whose
// failure predicate is "has any send", it must strip everything else.
func TestDifferentialShrinker(t *testing.T) {
	cfg := diffConfig{
		shape:  []int{3, 3},
		faults: []geom.Coord{{0, 0}, {1, 1}},
		sends:  []diffSend{{0, 5, 4}, {1, 2, 3}, {3, 4, 2}},
		bcasts: []int{0},
	}
	min := shrinkDiff(cfg, func(c diffConfig) bool { return len(c.sends) > 0 })
	if len(min.faults) != 0 || len(min.bcasts) != 0 || len(min.sends) != 1 {
		t.Errorf("shrinker left %s", min)
	}
}

// TestSpecWedgesWithTheKernel: the paper's two deadlocks, Fig. 5's naive
// broadcasts and Fig. 9's separate D-XB, wedge the kernel and the spec on
// the same cycle in the same state.
func TestSpecWedgesWithTheKernel(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.Config
		load func(m *core.Machine) error
	}{
		{"fig5-naive-broadcast", core.Config{Shape: geom.MustShape(4, 3), NaiveBroadcast: true},
			func(m *core.Machine) error {
				if _, _, err := m.Broadcast(geom.Coord{2, 0}, 8); err != nil {
					return err
				}
				_, _, err := m.Broadcast(geom.Coord{1, 2}, 8)
				return err
			}},
		{"fig9-separate-dxb", core.Config{Shape: geom.MustShape(4, 4), SXB: geom.Coord{0, 0}, DXB: geom.Coord{0, 3}, DXBSeparate: true},
			func(m *core.Machine) error {
				if err := m.AddFault(fault.RouterFault(geom.Coord{2, 1})); err != nil {
					return err
				}
				if _, err := m.Send(geom.Coord{0, 1}, geom.Coord{2, 2}, 24); err != nil {
					return err
				}
				_, _, err := m.Broadcast(geom.Coord{3, 2}, 24)
				return err
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.StallThreshold = 128
			m, err := core.NewMachine(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			l := newLockstep(m.Engine())
			if err := tc.load(m); err != nil {
				t.Fatal(err)
			}
			out := m.Run(100_000)
			l.check(t)
			if !out.Deadlocked {
				t.Fatalf("did not deadlock: %+v", out)
			}
		})
	}
}

// TestSpecAdaptiveLanes: a 2-lane machine under adaptive routing, with a
// fault, two waves of unicasts and a broadcast, matches the spec until it
// drains. Its routing functions choose lanes by reading output ownership and
// re-route provisional decisions that lose.
func TestSpecAdaptiveLanes(t *testing.T) {
	shape := geom.MustShape(4, 4)
	m, err := core.NewMachine(core.Config{Shape: shape, VCs: 2, Adaptive: true, StallThreshold: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddFault(fault.RouterFault(geom.Coord{2, 1})); err != nil {
		t.Fatal(err)
	}
	l := newLockstep(m.Engine())
	vcWaves(t, m, 5, 64)
	l.check(t)
	if !m.Engine().Quiescent() {
		t.Fatalf("did not drain by cycle %d", m.Cycle())
	}
	var adaptive int
	for _, d := range m.Deliveries() {
		if d.Adaptive {
			adaptive++
		}
	}
	if adaptive == 0 {
		t.Fatal("no packet took an adaptive lane")
	}
}

// vcWaves is core's FuzzVCAlloc workload: a wave of shift traffic, and at
// cycle 3 a second wave and a 3-flit broadcast, then steps until the machine
// drains or no flit has moved for stall cycles.
func vcWaves(t *testing.T, m *core.Machine, shift, stall int) {
	t.Helper()
	shape, n := m.Shape(), m.Shape().Size()
	wave := func(shift int) {
		for i := 0; i < n; i++ {
			src, dst := shape.CoordOf(i), shape.CoordOf((i+shift)%n)
			if !m.Alive(src) || !m.Alive(dst) || m.Reachable(src, dst) != nil {
				continue
			}
			if _, err := m.Send(src, dst, 4); err != nil {
				t.Fatalf("send %v->%v: %v", src, dst, err)
			}
		}
	}
	wave(shift)
	for i, still := 0, 0; i < 20000 && still < stall && !m.Engine().Quiescent(); i++ {
		if i == 3 {
			wave(shift + 1)
			m.Broadcast(shape.CoordOf(shift%n), 3)
		}
		moves := m.Engine().Moves()
		m.Step()
		if still++; m.Engine().Moves() != moves {
			still = 0
		}
	}
}

// TestSpecVCAllocKnownDeadlock drives TestVCAllocKnownDeadlock's input
// ('X' 0x18 'S' '\t' 0x9a 0x1d: a 2x2x5 machine, 2 lanes, 2-flit buffers,
// router 14 faulty, shift 29) beside the spec until no flit has moved for
// 256 cycles. The spec wedges on the same cycle in the same state, on the
// same 8-edge wait cycle, so the adaptive deadlock is the routing policy's,
// not a slip of the kernel.
func TestSpecVCAllocKnownDeadlock(t *testing.T) {
	shape := geom.MustShape(2, 2, 5)
	m, err := core.NewMachine(core.Config{Shape: shape, VCs: 2, Adaptive: true, Engine: engine.Config{BufferDepth: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddFault(fault.RouterFault(shape.CoordOf(0x9a % shape.Size()))); err != nil {
		t.Fatal(err)
	}
	l := newLockstep(m.Engine())
	vcWaves(t, m, 0x1d, 256)
	l.check(t)
	if m.Engine().Quiescent() {
		t.Fatalf("drained by cycle %d: the known deadlock no longer shows", m.Cycle())
	}
	if r := deadlock.Analyze(m.Engine()); len(r.Cycle) != 8 {
		t.Fatalf("wait cycle of %d edges, want TestVCAllocKnownDeadlock's 8:\n%s", len(r.Cycle), r.Describe())
	}
}
