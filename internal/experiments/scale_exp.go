package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/stats"
	"sr2201/internal/traffic"
)

func init() {
	register(Experiment{ID: "E14", Title: "Full-machine scale (2048 PEs)", Paper: "Sec. 2 / Sec. 5", run: runE14})
}

// e14Scenario drives one machine through E14's fixed workload — a
// broadcast, a half-shift p2p wave, a mid-run router failure with
// retransmission left to the wave's redundancy, then a second wave against
// the degraded machine — recording the engine StateHash every cycle. The
// workload is a pure function of (shape, cycle), so the stream is a
// fingerprint of the kernel's per-cycle behaviour (pinned by
// TestE14ScenarioStreamPins).
func e14Scenario(shape geom.Shape) ([]uint64, error) {
	m, err := core.NewMachine(core.Config{Shape: shape, StallThreshold: 1024})
	if err != nil {
		return nil, err
	}
	wave := func() {
		shape.Enumerate(func(s geom.Coord) bool {
			d := shape.CoordOf((shape.Index(s) + shape.Size()/2) % shape.Size())
			if d == s || !m.Alive(s) {
				return true
			}
			// Post-fault refusals are expected (the NIA consults the
			// rebuilt fault bits); refused sends simply do not inject.
			m.Send(s, d, 6)
			return true
		})
	}
	if _, _, err := m.Broadcast(shape.CoordOf(0), 6); err != nil {
		return nil, err
	}
	wave()
	var stream []uint64
	failAt := int64(40)
	secondWaveAt := int64(80)
	bad := shape.CoordOf(shape.Size() / 3)
	for cycle := int64(0); cycle < 6000; cycle++ {
		if m.Cycle() == failAt {
			if _, err := m.FailNow(fault.RouterFault(bad)); err != nil {
				return nil, err
			}
		}
		if m.Cycle() == secondWaveAt {
			wave()
		}
		m.Step()
		stream = append(stream, m.Engine().StateHash())
		if m.Cycle() > secondWaveAt && m.Engine().Quiescent() {
			return stream, nil
		}
	}
	return nil, fmt.Errorf("E14: %v scenario did not drain in 6000 cycles", shape)
}

// streamDigest folds a per-cycle StateHash stream into one FNV-1a value.
func streamDigest(stream []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range stream {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return h.Sum64()
}

// runE14 exercises the kernel at the scale the SR2201 shipped as. Part one:
// on a small 3-D machine, the per-cycle StateHash stream across a hardware
// broadcast, dimension-order waves, a dynamic router failure and the
// detoured recovery traffic, reported as one digest. Part two: the full
// 2048-PE machine (8x16x16; a 512-PE 8x8x8 in quick mode) runs under
// background load and must drain with the conservation audit intact. Shape
// criterion: both runs drain.
func runE14(r *Report, opt Options) error {
	scenarioShape := geom.MustShape(4, 4, 4)
	if opt.Quick {
		scenarioShape = geom.MustShape(3, 3, 3)
	}
	stream, err := e14Scenario(scenarioShape)
	if err != nil {
		return err
	}
	streamTbl := stats.NewTable("E14 fault-and-recovery scenario, per-cycle state hashes",
		"shape", "cycles", "stream digest")
	streamTbl.AddRow(scenarioShape.String(), len(stream), fmt.Sprintf("%016x", streamDigest(stream)))
	r.Tables = append(r.Tables, streamTbl)

	scaleShape := geom.MustShape(8, 16, 16)
	if opt.Quick {
		scaleShape = geom.MustShape(8, 8, 8)
	}
	m, err := core.NewMachine(core.Config{Shape: scaleShape, StallThreshold: 1024})
	if err != nil {
		return err
	}
	if _, _, err := m.Broadcast(scaleShape.CoordOf(scaleShape.Size()-1), 8); err != nil {
		return err
	}
	drv := traffic.Driver{
		M:       m,
		Pattern: traffic.Uniform{Shape: scaleShape},
		Rate:    0.005,
		Size:    8,
		Seed:    11,
		Warmup:  50,
		Measure: 200,
	}
	res := drv.Run()
	if err := m.Engine().CheckInvariants(); err != nil {
		return fmt.Errorf("E14: scale run violates invariants: %w", err)
	}
	drained := res.Drained && !res.Deadlocked
	outcome := "undrained"
	if drained {
		outcome = "drained"
	}
	scaleTbl := stats.NewTable("E14 full-machine scale run",
		"shape", "PEs", "cycles", "delivered", "final hash", "outcome")
	scaleTbl.AddRow(scaleShape.String(), scaleShape.Size(), m.Cycle(), len(m.Deliveries()),
		fmt.Sprintf("%016x", m.Engine().StateHash()), outcome)
	r.Tables = append(r.Tables, scaleTbl)

	r.Pass = drained
	r.Notef("the scenario covers broadcast serialization, dimension-order waves, a dynamic router failure (FailNow purge + policy rebuild) and detoured recovery traffic")
	return nil
}
