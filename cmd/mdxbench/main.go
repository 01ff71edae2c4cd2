// Command mdxbench regenerates the paper's evaluated artifacts: every
// figure-level scenario (E1-E5), the comparative and scaling studies
// (E6-E10), and the design ablations (A1-A2). Each experiment prints its
// result tables and a PASS/FAIL verdict for the shape criterion documented
// in DESIGN.md.
//
// Usage:
//
//	mdxbench              # run everything at full scale
//	mdxbench -quick       # reduced sweeps (CI scale)
//	mdxbench -exp E6      # one experiment
//	mdxbench -exp e1,f2   # several (comma-separated, case-insensitive)
//	mdxbench -parallel 4  # worker-pool width (default GOMAXPROCS)
//	mdxbench -list        # list experiment ids
//
// Experiments and their sweep cells run on a worker pool, but reports are
// printed in experiment-id order and every sweep merges its cells by index,
// so stdout is byte-identical at every -parallel level (timings go to
// stderr).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sr2201/internal/experiments"
	"sr2201/internal/sweep"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment ids to run, comma-separated and case-insensitive (e.g. e4 or E1,F2), or 'all'")
		quick    = flag.Bool("quick", false, "reduced sweep sizes")
		parallel = flag.Int("parallel", sweep.DefaultParallel(), "worker-pool width for experiments and their sweep cells (1 = serial)")
		list     = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %-55s %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	opts := experiments.Options{Quick: *quick, Parallel: *parallel}
	toRun, err := experiments.Resolve(strings.Split(*exp, ","))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdxbench: %v (use -list)\n", err)
		os.Exit(2)
	}

	type outcome struct {
		report *experiments.Report
		err    error
	}
	start := time.Now()
	results, _ := sweep.Do(nil, nil, len(toRun), *parallel, func(i int) outcome {
		r, err := toRun[i].Run(opts)
		return outcome{r, err}
	})
	fmt.Fprintf(os.Stderr, "mdxbench: %d experiment(s) in %v (parallel=%d)\n",
		len(toRun), time.Since(start).Round(time.Millisecond), *parallel)

	failed := 0
	for i, o := range results {
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "mdxbench: %s: %v\n", toRun[i].ID, o.err)
			failed++
			continue
		}
		fmt.Print(experiments.RenderReport(o.report))
		if !o.report.Pass {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "mdxbench: %d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}
