package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/geom"
)

// The benchmark's workloads at a scale the test suite can afford: the same
// code paths (virtual channels, a preset fault, broadcasts, compiled
// tables) on small machines and a dozen short ops.
var tinyKernels = []kernelWorkload{
	{
		name: "dense-long", shape: geom.MustShape(4, 4),
		rate: 0.012, size: 16, warmup: 200, opCycles: 50,
	},
	{
		name: "short-vc-faulted", shape: geom.MustShape(4, 4, 4), vcs: 4, adaptive: true,
		preset: []fault.Fault{fault.RouterFault(geom.Coord{1, 2, 1})},
		rate:   0.08, bcastRate: 1e-3, size: 2, warmup: 100, opCycles: 25,
	},
	{
		name: "full-machine-sparse", shape: geom.MustShape(4, 4, 4), tables: true,
		rate: 0.002, size: 8, warmup: 200, opCycles: 100,
	},
}

var tinyServe = serveWorkload{
	name: "serve-mixed", clients: 2, warmupOps: 6,
	campaignsPer20: 8, faultsPer20: 7,
	campaignShape: geom.MustShape(4, 4), faultShape: geom.MustShape(6, 6),
	campaignWaves: 8, faultWaves: 4,
	verifyEvery: 6, ladderSpecs: 2,
}

// tinyOptions asks for 0.6 s, that is 24 ops.
func tinyOptions(t *testing.T, seed int64, trace bool) options {
	return options{seed: seed, seconds: 0.6, trace: trace, outDir: t.TempDir()}
}

func TestKernelDeterminism(t *testing.T) {
	for _, w := range tinyKernels {
		t.Run(w.name, func(t *testing.T) {
			run := func(seed int64) *report {
				rep, err := runKernel(w, tinyOptions(t, seed, false))
				if err != nil {
					t.Fatal(err)
				}
				if !rep.correct() {
					t.Fatalf("seed %d: output checks failed: %v", seed, rep.problems)
				}
				return rep
			}
			a, b, other := run(7), run(7), run(8)
			if a.digest != b.digest {
				t.Errorf("same seed, different digests:\n%s\n%s", a.digest, b.digest)
			}
			if a.digest == other.digest {
				t.Errorf("seeds 7 and 8 share the digest %s", a.digest)
			}
			for name, v := range a.values {
				if strings.HasPrefix(name, "sim") && b.values[name] != v {
					t.Errorf("%s: %v then %v for the same seed", name, v, b.values[name])
				}
			}
			if a.values["sim.delivered_packets"] == 0 || a.values["sim_latency_p95_cycles"] == 0 {
				t.Error("no packet delivered in the timed phase")
			}
			x, y := a.values["allocs_per_op"], b.values["allocs_per_op"]
			if x == 0 || math.Abs(x-y) > 0.01*x {
				t.Errorf("allocs_per_op %v then %v for the same seed", x, y)
			}
		})
	}
}

func TestGeneratorFollowsItsRates(t *testing.T) {
	const pes, cycles = 64, 20_000
	g := newGenerator(3, pes, 0.05, 0.001)
	var uni, bcast int
	last := int32(-1)
	for _, in := range g.fill(cycles) {
		if in.cycle < last || in.src < 0 || in.src >= pes || in.dst >= pes || in.dst == in.src {
			t.Fatalf("bad injection %+v after cycle %d", in, last)
		}
		last = in.cycle
		if in.dst < 0 {
			bcast++
		} else {
			uni++
		}
	}
	if want := 0.05 * pes * cycles; math.Abs(float64(uni)-want) > 0.05*want {
		t.Errorf("%d unicasts, want about %.0f", uni, want)
	}
	if want := 0.001 * pes * cycles; math.Abs(float64(bcast)-want) > 0.15*want {
		t.Errorf("%d broadcasts, want about %.0f", bcast, want)
	}
	// Windows of any length continue one schedule.
	a, b := newGenerator(3, pes, 0.05, 0.001), newGenerator(3, pes, 0.05, 0.001)
	a.fill(100)
	for i := 0; i < 4; i++ {
		b.fill(25)
	}
	if a.digest != b.digest {
		t.Errorf("one window of 100 cycles and four of 25 differ: %x and %x", a.digest, b.digest)
	}
}

// buildServe builds the mdxserve binary the serve workload drives.
func buildServe(t *testing.T) string {
	bin := filepath.Join(t.TempDir(), "mdxserve")
	out, err := exec.Command("go", "build", "-o", bin, "sr2201/cmd/mdxserve").CombinedOutput()
	if err != nil {
		t.Fatalf("building mdxserve: %v\n%s", err, out)
	}
	return bin
}

// TestSmokeTraced runs all four workloads at tiny scale with tracing on,
// the mdxserve child included, and holds the printed result to the
// contract: every per-layer metric present, the layers the workload drives
// non-zero, the trace file written.
func TestSmokeTraced(t *testing.T) {
	type smoke struct {
		name    string
		run     func(o options) (*report, error)
		nonZero []string
	}
	var cases []smoke
	for _, w := range tinyKernels {
		cases = append(cases, smoke{w.name, func(o options) (*report, error) { return runKernel(w, o) }, []string{
			"core.new_machine_ms", "traffic.warmup_ms", "core.send_ns_per_packet", "routing.decide_ns",
			"routing.unicast_path_us", "engine.step_us_mean", "engine.step_share", "engine.visits_per_cycle",
			"engine.allocs_per_step", "stats.harvest_us_per_op", "checkpoint.snapshot_kb", "cdg.analyze_ms",
			"sim.delivered_packets", "sim.latency_p50_cycles",
		}})
	}
	cases = append(cases, smoke{tinyServe.name, func(o options) (*report, error) { return runServe(tinyServe, o) }, []string{
		"campaign.run_cell_ms_p50", "campaign.run_single_reconfig_ms_p50", "campaign.run_single_rebuild_ms_p50",
		"jobs.mem_exec_ms_p50.campaign", "jobs.mem_exec_ms_p50.fault", "jobs.disk_exec_ms_p50.campaign",
		"jobs.disk_exec_ms_p50.fault", "jobs.submit_ms_p50", "jobs.wait_ms_p50.campaign", "jobs.wait_ms_p50.fault",
		"jobs.e2e_ms_p50.hit", "jobs.artifact_get_ms_p50", "jobs.dedupe_hit_share", "jobs.executions",
		"jobs.cycles_per_s", "jobs.state_files_per_exec", "jobs.spawn_ready_ms", "jobs.restart_rescan_ms",
		"core.new_machine_ms", "cdg.analyze_ms",
	}})
	serve := buildServe(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := tinyOptions(t, 5, true)
			o.serve = serve
			rep, err := c.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() || rep.attempted == 0 {
				t.Fatalf("attempted %d, failed %d, problems %v", rep.attempted, rep.failed, rep.problems)
			}
			for _, name := range c.nonZero {
				if rep.values[name] == 0 {
					t.Errorf("%s is 0", name)
				}
			}
			// cpu_ms_per_op is counted in ticks of 10 ms and may read 0 at this scale.
			for _, d := range endToEnd {
				if rep.values[d.name] <= 0 && d.name != "cpu_ms_per_op" {
					t.Errorf("%s is %v", d.name, rep.values[d.name])
				}
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultJSON
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("result line has %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("result line lacks %s in %s", d.name, d.unit)
				}
			}
			if _, err := os.Stat(filepath.Join(o.outDir, "trace-"+c.name+".json")); err != nil {
				t.Error(err)
			}
			if left, _ := filepath.Glob(filepath.Join(o.outDir, "state-*")); len(left) > 0 {
				t.Errorf("state directories left behind: %v", left)
			}
		})
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the tables in the code.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in the file, %d in the code", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in the file, %q in the code", i, w.Name, workloadNames[i])
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("file has %d end-to-end and %d per-layer metrics, code has %d and %d",
			len(file.EndToEnd), len(file.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		better := "lower"
		if d.higherBetter {
			better = "higher"
		}
		if f := file.EndToEnd[i]; f.Name != d.name || f.Unit != d.unit || f.Better != better || f.Bound != d.bound {
			t.Errorf("end-to-end metric %d is %+v in the file, %+v in the code", i, f, d)
		}
	}
	for i, d := range perLayer {
		if f := file.PerLayer[i]; f.Name != d.name || f.Unit != d.unit {
			t.Errorf("per-layer metric %d is %+v in the file, %+v in the code", i, f, d)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.q1 != 2.75 || s.median != 5.5 || s.q3 != 8.25 {
		t.Errorf("got %+v", s)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if s := summarize([]float64{3, 1, 2}); s.q1 != 1 || s.median != 2 || s.q3 != 3 {
		t.Errorf("got %+v", s)
	}
}
