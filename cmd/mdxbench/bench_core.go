package main

// -bench-core: core simulation cycle-rate snapshots — the E6 and E11
// experiment sweeps (cells report their simulated cycles through
// Options.OnCell) and the raw kernel step loop the SimulationCycle
// micro-benchmark measures. The JSON lands in a file (BENCH_core.json in CI)
// so the per-commit speed trajectory of the engine is archived.

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"sr2201/internal/core"
	"sr2201/internal/experiments"
	"sr2201/internal/geom"
)

type coreBenchEntry struct {
	Name         string  `json:"name"`
	Detail       string  `json:"detail"`
	Cycles       int64   `json:"cycles"`
	WallMS       float64 `json:"wall_ms"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	Pass         bool    `json:"pass"`
}

// benchExperimentRate runs one registered experiment, accumulating the
// simulated cycles its sweep cells report, and prices it in cycles per
// wall-clock second.
func benchExperimentRate(id string, quick bool, parallel int) (coreBenchEntry, error) {
	e, ok := experiments.ByID(id)
	if !ok {
		return coreBenchEntry{}, fmt.Errorf("experiment %s not registered", id)
	}
	var cycles atomic.Int64
	opt := experiments.Options{
		Quick:    quick,
		Parallel: parallel,
		OnCell:   func(c int64) { cycles.Add(c) },
	}
	start := time.Now()
	r, err := e.Run(opt)
	if err != nil {
		return coreBenchEntry{}, err
	}
	wall := time.Since(start)
	return coreBenchEntry{
		Name:         id,
		Detail:       e.Title,
		Cycles:       cycles.Load(),
		WallMS:       float64(wall.Microseconds()) / 1000,
		CyclesPerSec: float64(cycles.Load()) / wall.Seconds(),
		Pass:         r.Pass,
	}, nil
}

// benchKernelRate steps a loaded 8x8 machine for a fixed cycle budget — the
// same workload as the SimulationCycle micro-benchmark, with the wave
// refilled whenever the network drains so the kernel never idles.
func benchKernelRate(cycles int64) (coreBenchEntry, error) {
	shape := geom.MustShape(8, 8)
	m, err := core.NewMachine(core.Config{Shape: shape})
	if err != nil {
		return coreBenchEntry{}, err
	}
	refill := func() {
		shape.Enumerate(func(c geom.Coord) bool {
			dst := shape.CoordOf((shape.Index(c) + 27) % shape.Size())
			_, _ = m.Send(c, dst, 8)
			return true
		})
	}
	refill()
	start := time.Now()
	for cyc := int64(0); cyc < cycles; cyc++ {
		if m.Engine().Quiescent() {
			refill()
		}
		m.Step()
	}
	wall := time.Since(start)
	return coreBenchEntry{
		Name:         "SimulationCycle",
		Detail:       "loaded 8x8 crossbar kernel step loop",
		Cycles:       cycles,
		WallMS:       float64(wall.Microseconds()) / 1000,
		CyclesPerSec: float64(cycles) / wall.Seconds(),
		Pass:         true,
	}, nil
}

// benchCore runs the three tracked rate cases and writes the JSON report. An
// experiment that fails its shape criterion fails the benchmark — a perf
// snapshot of a broken run would poison the trajectory.
func benchCore(path string, quick bool, parallel int) error {
	kernelCycles := int64(50_000)
	if quick {
		kernelCycles = 10_000
	}
	var entries []coreBenchEntry
	kernel, err := benchKernelRate(kernelCycles)
	if err != nil {
		return fmt.Errorf("SimulationCycle: %w", err)
	}
	entries = append(entries, kernel)
	failed := 0
	for _, id := range []string{"E6", "E11"} {
		e, err := benchExperimentRate(id, quick, parallel)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if !e.Pass {
			failed++
		}
		entries = append(entries, e)
	}
	for _, e := range entries {
		fmt.Fprintf(os.Stderr, "mdxbench: %-15s %12d cycles %9.1f ms %12.0f cyc/s (pass=%v)\n",
			e.Name, e.Cycles, e.WallMS, e.CyclesPerSec, e.Pass)
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed their shape criterion — see %s", failed, path)
	}
	return nil
}
