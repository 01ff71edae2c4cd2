package core_test

// The VC test wall, core layer.
//
// Virtual channels multiply every router↔crossbar wire into lanes, so the
// single most important regression surface is the degenerate case: a machine
// built with VCs=1 (or 0) and Adaptive=false must be the pre-VC machine down
// to the last bit — same per-cycle StateHash stream, same snapshot bytes.
// The equivalence tests pin that. The adaptive round-trip
// test pins checkpoint v2: a mid-run snapshot of a VCs>1 machine restores
// into a fresh machine that replays the identical hash stream. FuzzVCAlloc
// holds the allocator itself to the conservation laws.

import (
	"bytes"
	"fmt"
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
)

// vcScenario is one workload driven identically into two machines.
type vcScenario struct {
	name string
	cfg  core.Config
	// drive injects traffic; called once per machine before stepping.
	drive func(t *testing.T, m *core.Machine)
}

func shiftTraffic(k int) func(t *testing.T, m *core.Machine) {
	return func(t *testing.T, m *core.Machine) {
		t.Helper()
		sh := m.Shape()
		n := sh.Size()
		for i := 0; i < n; i++ {
			src, dst := sh.CoordOf(i), sh.CoordOf((i+k)%n)
			if !m.Alive(src) || !m.Alive(dst) {
				continue
			}
			if err := m.Reachable(src, dst); err != nil {
				continue
			}
			if _, err := m.Send(src, dst, 8); err != nil {
				t.Fatalf("send %v->%v: %v", src, dst, err)
			}
		}
	}
}

func vcScenarios() []vcScenario {
	bcast := func(t *testing.T, m *core.Machine) {
		t.Helper()
		shiftTraffic(5)(t, m)
		if _, _, err := m.Broadcast(geom.Coord{1, 2}, 8); err != nil {
			t.Fatalf("broadcast: %v", err)
		}
	}
	return []vcScenario{
		{
			name:  "unicast-faulted",
			cfg:   core.Config{Shape: geom.MustShape(4, 4)},
			drive: shiftTraffic(5),
		},
		{
			name:  "broadcast",
			cfg:   core.Config{Shape: geom.MustShape(4, 4)},
			drive: bcast,
		},
		{
			name: "separate-dxb",
			cfg: core.Config{
				Shape:       geom.MustShape(4, 4),
				DXB:         geom.Coord{0, 3},
				DXBSeparate: true,
			},
			drive: shiftTraffic(3),
		},
		{
			name: "pivot-3d",
			cfg: core.Config{
				Shape:        geom.MustShape(3, 3, 3),
				PivotLastDim: true,
			},
			drive: shiftTraffic(7),
		},
	}
}

// buildVCScenario constructs the machine, applying the scenario's preset
// fault for the 2D cases so detour paths are exercised.
func buildVCScenario(t *testing.T, sc vcScenario, vcs int) *core.Machine {
	t.Helper()
	cfg := sc.cfg
	cfg.VCs = vcs
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine(%s, vcs=%d): %v", sc.name, vcs, err)
	}
	if sc.name == "unicast-faulted" {
		if err := m.AddFault(fault.RouterFault(geom.Coord{2, 1})); err != nil {
			t.Fatal(err)
		}
	}
	sc.drive(t, m)
	return m
}

// runStream steps the machine to quiescence (or the cycle cap) and returns
// the per-cycle StateHash stream.
func runStream(m *core.Machine, cap int) []uint64 {
	var out []uint64
	for i := 0; i < cap && !m.Engine().Quiescent(); i++ {
		m.Step()
		out = append(out, m.Engine().StateHash())
	}
	return out
}

// TestVCSingleLaneHashEquivalence pins the degenerate case: VCs=1 (and the
// unset default) build byte-identical machines — identical per-cycle hash
// streams and identical snapshot bytes — for every routing variant. This is
// the contract that lets every pre-VC golden fixture survive the VC layer
// untouched.
func TestVCSingleLaneHashEquivalence(t *testing.T) {
	for _, sc := range vcScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			ref := buildVCScenario(t, sc, 0) // the pre-VC machine: defaults
			got := buildVCScenario(t, sc, 1)
			refStream := runStream(ref, 20000)
			gotStream := runStream(got, 20000)
			if len(refStream) != len(gotStream) {
				t.Fatalf("stream lengths diverged: default %d cycles, vcs=1 %d cycles",
					len(refStream), len(gotStream))
			}
			for i := range refStream {
				if refStream[i] != gotStream[i] {
					t.Fatalf("cycle %d: hash %#x (default) != %#x (vcs=1)",
						i+1, refStream[i], gotStream[i])
				}
			}
			if !bytes.Equal(ref.Snapshot(), got.Snapshot()) {
				t.Error("final snapshots differ between default and vcs=1 machines")
			}
		})
	}
}

// adaptiveMachine builds the canonical adaptive test machine: 4x4, two
// lanes, cross traffic in both dimensions plus a broadcast, one preset
// router fault to force detours through the escape channel.
func adaptiveMachine(t *testing.T) *core.Machine {
	t.Helper()
	m, err := core.NewMachine(core.Config{
		Shape:    geom.MustShape(4, 4),
		VCs:      2,
		Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddFault(fault.RouterFault(geom.Coord{2, 1})); err != nil {
		t.Fatal(err)
	}
	shiftTraffic(5)(t, m)
	if _, _, err := m.Broadcast(geom.Coord{3, 2}, 8); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestVCAdaptiveCheckpointRoundTrip pins checkpoint v2 for per-VC state: a
// mid-run snapshot of an adaptive VCs=2 machine — provisional route states,
// per-lane credits, AdaptiveHops in flight — restores into a fresh machine
// whose remaining per-cycle hash stream and delivery records are identical
// to the uninterrupted run.
func TestVCAdaptiveCheckpointRoundTrip(t *testing.T) {
	for _, cut := range []int{1, 5, 9, 17} {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			ref := adaptiveMachine(t)
			for i := 0; i < cut; i++ {
				ref.Step()
			}
			snap := ref.Snapshot()
			var refStream []uint64
			for i := 0; i < 20000 && !ref.Engine().Quiescent(); i++ {
				ref.Step()
				refStream = append(refStream, ref.Engine().StateHash())
			}

			restored, err := core.NewMachine(core.Config{
				Shape:    geom.MustShape(4, 4),
				VCs:      2,
				Adaptive: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.AddFault(fault.RouterFault(geom.Coord{2, 1})); err != nil {
				t.Fatal(err)
			}
			if err := restored.Restore(snap); err != nil {
				t.Fatalf("restore at cut %d: %v", cut, err)
			}
			for i, want := range refStream {
				restored.Step()
				if got := restored.Engine().StateHash(); got != want {
					t.Fatalf("cycle %d after cut: hash %#x != reference %#x", i+1, got, want)
				}
			}
			if got, want := len(restored.Deliveries()), len(ref.Deliveries()); got != want {
				t.Errorf("restored run recorded %d deliveries, reference %d", got, want)
			}
			adaptive := 0
			for _, d := range restored.Deliveries() {
				if d.Adaptive {
					adaptive++
				}
			}
			if adaptive == 0 {
				t.Error("no delivery used an adaptive lane — the round trip did not exercise per-VC state")
			}
		})
	}
}

// TestVCAdaptiveStaleSnapshotRejected pins the fingerprint direction the
// equivalence tests cannot see: an adaptive machine's snapshot names a
// different configuration than the default machine, so restoring it there
// must fail — while pre-VC snapshots (VCs<=1) keep their original
// fingerprints and stay restorable.
func TestVCAdaptiveStaleSnapshotRejected(t *testing.T) {
	adaptive := adaptiveMachine(t)
	plain, err := core.NewMachine(core.Config{Shape: geom.MustShape(4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Restore(adaptive.Snapshot()); err == nil {
		t.Error("default machine restored an adaptive VCs=2 snapshot")
	}
	if err := adaptive.Restore(plain.Snapshot()); err == nil {
		t.Error("adaptive machine restored a single-lane snapshot")
	}
}

// FuzzVCAlloc drives the VC allocator over arbitrary small adaptive
// machines: random shapes, lane counts, fault placements and traffic (two
// overlapping waves and a broadcast). The engine's conservation laws
// (per-lane credits, ownership, flit accounting, header ownership) must
// hold after every cycle, nothing may panic, and the run must drain — the
// escape channel guarantees it, and a blocked escape lane would surface
// here as a stall at the horizon.
func FuzzVCAlloc(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(0), uint8(2), uint8(0), uint8(5))
	f.Add(uint8(2), uint8(3), uint8(0), uint8(3), uint8(7), uint8(1))
	f.Add(uint8(3), uint8(3), uint8(3), uint8(2), uint8(11), uint8(9))
	f.Add(uint8(5), uint8(1), uint8(0), uint8(4), uint8(2), uint8(3))
	f.Add(uint8(2), uint8(2), uint8(2), uint8(2), uint8(255), uint8(0))
	f.Fuzz(func(t *testing.T, a, b, c, vcsRaw, faultSel, shift uint8) {
		var extents []int
		for _, e := range []uint8{a, b, c} {
			if e == 0 {
				break
			}
			extents = append(extents, int(e%4)+2) // 2..5 per dimension
		}
		if len(extents) == 0 {
			t.Skip()
		}
		shape := geom.MustShape(extents...)
		if shape.Size() > 64 {
			t.Skip()
		}
		vcs := int(vcsRaw%3) + 2 // 2..4 lanes
		m, err := core.NewMachine(core.Config{
			Shape:    shape,
			VCs:      vcs,
			Adaptive: true,
			Engine:   engine.Config{BufferDepth: int(vcsRaw%2) + 1, LinkDelay: 1},
		})
		if err != nil {
			t.Fatalf("NewMachine(%v, vcs=%d): %v", shape, vcs, err)
		}
		if faultSel != 255 {
			victim := shape.CoordOf(int(faultSel) % shape.Size())
			if err := m.AddFault(fault.RouterFault(victim)); err != nil {
				t.Fatalf("fault %v: %v", victim, err)
			}
		}
		n := shape.Size()
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
		wave(int(shift))
		const horizon = 20000
		for i := 0; i < horizon && !m.Engine().Quiescent(); i++ {
			if i == 3 {
				// A second wave and a broadcast while the first is in
				// flight: headers released by early deliveries are handed
				// out again beside live ones, and the S-XB fans one out.
				// Broadcast refuses a source its static tree does not accept.
				wave(int(shift) + 1)
				m.Broadcast(shape.CoordOf(int(shift)%n), 3)
			}
			m.Step()
			if err := m.Engine().CheckInvariants(); err != nil {
				t.Fatalf("cycle %d (shape %v, vcs=%d): %v", m.Cycle(), shape, vcs, err)
			}
		}
		if !m.Engine().Quiescent() {
			t.Fatalf("did not drain by cycle %d (shape %v, vcs=%d, fault=%d): escape channel blocked?",
				horizon, shape, vcs, faultSel)
		}
	})
}
