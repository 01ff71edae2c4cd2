// Command mdxperf is the repository's benchmark: one invocation runs one
// workload, checks its outputs, and prints every metric by name and unit.
// See bench/README.md for the workloads, the metrics and how they interact.
//
//	mdxperf -workload dense-long -seed 1 -seconds 20 -trace 0
//	mdxperf -workload serve-mixed -mdxserve path/to/mdxserve -trace 1
//	mdxperf -selfcheck
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

// options are the settings of one run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string // where the trace and the child's stderr go
	serve   string // path of the mdxserve binary (serve-mixed)
}

// workloadNames is the fixed order the self-check runs the workloads in.
var workloadNames = []string{"dense-long", "short-vc-faulted", "full-machine-sparse", "serve-mixed"}

func runWorkload(name string, o options) (*report, error) {
	for _, w := range kernelWorkloads {
		if w.name == name {
			return runKernel(w, o)
		}
	}
	if name == serveMixed.name {
		return runServe(serveMixed, o)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, " | "))
		seed      = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds   = flag.Float64("seconds", 20, "sizes the timed phase: it runs 40 ops per second asked for")
		trace     = flag.Int("trace", 0, "1 records spans around the calls into each layer and prints the per-layer metrics")
		outDir    = flag.String("out", "bench/out", "directory for the trace, the mdxserve child's stderr and its state")
		serve     = flag.String("mdxserve", "", "path of the mdxserve binary (needed by serve-mixed)")
		selfcheck = flag.Bool("selfcheck", false, "run every workload in two alternating sets of runs and report whether the sets agree")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mdxperf: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir, serve: *serve}
	if *selfcheck {
		if err := selfCheck(os.Stdout, o); err != nil {
			fmt.Fprintln(os.Stderr, "mdxperf:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := runWorkload(*workload, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdxperf:", err)
		os.Exit(2)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mdxperf:", err)
		os.Exit(2)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}
