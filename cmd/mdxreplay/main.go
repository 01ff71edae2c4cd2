// Command mdxreplay records a run's snapshot ring and bisects divergences.
//
// Record mode runs one fault schedule (mdxfault's single-mode vocabulary)
// and writes a recording directory: the spec, an engine StateHash ladder
// sampled every -every cycles, and a ring of full machine snapshots. Bisect
// mode compares two recordings and finds the exact first cycle where their
// engine states diverge — binary-searching the hash ladders, restoring both
// runs from their latest common snapshot, and lockstepping from there
// instead of replaying from cycle 0.
//
// Examples:
//
//	mdxreplay -record -o runA -shape 8x8 -fail rtc:3,4@500 -retransmit
//	mdxreplay -record -o runB -shape 8x8 -fail rtc:3,4@900 -retransmit
//	mdxreplay -bisect runA runB
//
// Recordings of different machine variants (-dxb-separate, -naive-broadcast,
// -pivot) of the same workload bisect too: that is how a Fig. 9-style
// deadlock is pinned to the cycle its wait cycle starts forming.
package main

import (
	"flag"
	"fmt"
	"os"

	"sr2201/internal/replay"
)

func main() {
	var (
		doRecord = flag.Bool("record", false, "record a run's snapshot ring into -o")
		doBisect = flag.Bool("bisect", false, "bisect two recording directories (positional args)")
		out      = flag.String("o", "", "recording output directory (record mode)")
		every    = flag.Int64("every", 256, "hash-ladder and snapshot spacing in cycles")
		keep     = flag.Int("keep", 0, "snapshot ring capacity (0 = keep every snapshot)")
		spec     replay.RunSpec
	)
	// The run flags write straight into the recording's spec.
	flag.StringVar(&spec.Shape, "shape", "8x8", "lattice shape, e.g. 8x8 or 4x4x4")
	flag.StringVar(&spec.Pattern, "pattern", "shift+5", "traffic pattern: shift+K | reverse")
	flag.IntVar(&spec.Waves, "waves", 4, "traffic waves (one packet per live PE per wave)")
	flag.Int64Var(&spec.Gap, "gap", 24, "cycles between waves")
	flag.IntVar(&spec.PacketSize, "packet", 0, "packet size in flits (0 = default)")
	flag.Int64Var(&spec.Horizon, "horizon", 50_000, "cycle budget for the run")
	flag.BoolVar(&spec.Retransmit, "retransmit", false, "retransmit lost packets from their sources")
	flag.Int64Var(&spec.RetryAfter, "retry-after", 64, "cycles before the first retransmission")
	flag.IntVar(&spec.Backoff, "backoff", 2, "timeout multiplier per further attempt")
	flag.IntVar(&spec.MaxRetries, "max-retries", 4, "retransmission attempts per packet")
	flag.Int64Var(&spec.Stall, "stall", 0, "deadlock-watchdog stall threshold (0 = default)")
	flag.StringVar(&spec.SXB, "sxb", "", "serialized-crossbar line coordinate (default all-zero)")
	flag.StringVar(&spec.DXB, "dxb", "", "detour-crossbar line coordinate (with -dxb-separate)")
	flag.BoolVar(&spec.DXBSeparate, "dxb-separate", false, "untie D-XB from S-XB (paper Fig. 9 deadlock-prone variant)")
	flag.BoolVar(&spec.NaiveBroadcast, "naive-broadcast", false, "disable S-XB serialization (paper Fig. 5 scheme)")
	flag.BoolVar(&spec.PivotLastDim, "pivot", false, "enable the two-phase pivot extension")
	flag.IntVar(&spec.VCs, "vcs", 0, "virtual channels per physical wire (with -adaptive; 0 = single-lane network)")
	flag.BoolVar(&spec.Adaptive, "adaptive", false, "escape-VC adaptive routing (needs -vcs >= 2)")
	flag.Var((*failList)(&spec.Fails), "fail", "fault schedule rtc:X,Y@CYCLE or xb:DIM:X,Y@CYCLE (repeatable)")
	flag.Parse()

	switch {
	case *doRecord == *doBisect:
		fatal(fmt.Errorf("pick exactly one of -record or -bisect"))
	case *doRecord:
		if *out == "" {
			fatal(fmt.Errorf("-record needs -o DIR"))
		}
		rec, err := replay.Record(spec, *every, *keep, *out)
		if err != nil {
			fatal(err)
		}
		m := rec.Meta
		fmt.Printf("recorded %s: %d cycles, %d ladder points, %d snapshot(s) retained\n",
			*out, m.Final.Cycle, len(m.Points), len(m.Snapshots))
		fmt.Printf("verdict: drained=%v stalled=%v deadlocked=%v final-hash=%s\n",
			m.Drained, m.Stalled, m.Deadlocked, m.Final.Hash)
	case *doBisect:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-bisect takes exactly two recording directories"))
		}
		ra, err := replay.Load(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		rb, err := replay.Load(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		d, err := replay.Bisect(ra, rb)
		if err != nil {
			fatal(err)
		}
		if !d.Diverged {
			fmt.Printf("no divergence: state streams identical through both runs (seeked to cycle %d, stepped %d)\n",
				d.SeekCycle, d.Stepped)
			return
		}
		if d.Terminated {
			fmt.Printf("termination divergence at cycle %d: one run finished, the other ran on\n", d.Cycle)
		} else {
			fmt.Printf("first divergence at cycle %d: %s != %s\n", d.Cycle, d.HashA, d.HashB)
		}
		fmt.Printf("seeked to common snapshot at cycle %d, lockstepped %d cycle(s) — %d cycle(s) skipped\n",
			d.SeekCycle, d.Stepped, d.SeekCycle)
		os.Exit(1)
	}
}

// failList collects repeated -fail flags.
type failList []string

func (f *failList) String() string     { return fmt.Sprint([]string(*f)) }
func (f *failList) Set(s string) error { *f = append(*f, s); return nil }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mdxreplay:", err)
	os.Exit(2)
}
