package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runsPerSet is how many runs of each workload each of the self-check's two
// sets holds.
const runsPerSet = 5

// selfCheck runs every workload in two sets of runs of the same code and the
// same seed, the sets alternating, each run a fresh process. It prints, as
// markdown, each set's median and quartiles of every end-to-end metric, the
// spread (distance between the quartiles over the median) of each set and of
// both pooled, and how much worse the second set's median is than the
// first's, held against the metric's bound and against the agreement ISSUE
// 12 asked for. An error means a run failed; disagreement is reported in the
// table, not as an error.
func selfCheck(w io.Writer, o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# mdxperf self-check\n\n")
	fmt.Fprintf(w, "Two sets (A, B) of %d runs each per workload, alternating A, B, A, B, ...; every run is a fresh\n", runsPerSet)
	fmt.Fprintf(w, "process doing the same work: seed %d, %d ops (`--seconds %g`). `spread` is (q3 - q1) / median as\n", o.seed, timedOps(o.seconds), o.seconds)
	fmt.Fprintf(w, "Python's `statistics.quantiles(values, n=4)` gives the quartiles; `pooled spread` is that of all %d\n", 2*runsPerSet)
	fmt.Fprintf(w, "runs. `B vs A` is how much worse B's median is than A's (negative: better). `within bound` holds it\n")
	fmt.Fprintf(w, "to the bound in `BENCHMARK.json`; `issue target met` holds both `B vs A` and the pooled spread to\n")
	fmt.Fprintf(w, "the agreement ISSUE 12 asked for (10 %% on timings, 5 %% on `rss_mb`, 1 %% on `allocs_per_op`,\n")
	fmt.Fprintf(w, "exact on `sim_latency_p95_cycles`).\n")
	agree, rows, met := true, 0, 0
	var missed []string
	for _, name := range workloadNames {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*runsPerSet; i++ {
			args := []string{
				"-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-trace", "0", "-out", o.outDir, "-mdxserve", o.serve,
			}
			var stdout bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s run %d: %w\n%s", name, i, err, stdout.Bytes())
			}
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			var res resultJSON
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s: result line: %w", name, err)
			}
			for k, v := range res.Metrics {
				sets[i%2][k] = append(sets[i%2][k], v.Value)
			}
		}
		fmt.Fprintf(w, "\n## %s\n\n", name)
		fmt.Fprintf(w, "| metric | unit | A median | A q1..q3 | A spread | B median | B q1..q3 | B spread | pooled spread | B vs A | bound | within bound | issue target | issue target met |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
		for _, d := range endToEnd {
			a, b := summarize(sets[0][d.name]), summarize(sets[1][d.name])
			pooled := summarize(append(append([]float64(nil), sets[0][d.name]...), sets[1][d.name]...))
			worse := (b.median - a.median) / a.median
			if d.higherBetter {
				worse = -worse
			}
			ok := worse <= d.bound
			agree = agree && ok
			hit := math.Abs(worse) <= d.target && pooled.spread() <= d.target
			rows++
			if hit {
				met++
			} else {
				missed = append(missed, name+" "+d.name)
			}
			fmt.Fprintf(w, "| `%s` | %s | %.5g | %.5g..%.5g | %.2f %% | %.5g | %.5g..%.5g | %.2f %% | %.2f %% | %+.2f %% | %g %% | %s | %g %% | %s |\n",
				d.name, d.unit, a.median, a.q1, a.q3, 100*a.spread(), b.median, b.q1, b.q3, 100*b.spread(), 100*pooled.spread(),
				100*worse, 100*d.bound, yesNo(ok), 100*d.target, yesNo(hit))
		}
	}
	fmt.Fprintf(w, "\nAll medians agree within their bounds: **%s**\n", yesNo(agree))
	fmt.Fprintf(w, "\nISSUE 12's agreement met on %d of %d rows", met, rows)
	if len(missed) > 0 {
		fmt.Fprintf(w, "; **not met** on: %s", strings.Join(missed, ", "))
	}
	fmt.Fprintln(w, ".")
	return nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

type summary struct{ q1, median, q3 float64 }

func (s summary) spread() float64 { return (s.q3 - s.q1) / s.median }

// summarize computes the quartiles the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method).
func summarize(values []float64) summary {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	q := func(i int) float64 {
		const n = 4
		m := len(v) + 1
		j := min(max(i*m/n, 1), len(v)-1)
		delta := i*m - j*n
		return (v[j-1]*float64(n-delta) + v[j]*float64(delta)) / n
	}
	return summary{q1: q(1), median: q(2), q3: q(3)}
}
