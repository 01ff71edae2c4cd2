// Command mdxreplay records a run's state-hash ladder and bisects
// divergences.
//
// Record mode runs what mdxfault's single mode would, spelled with the same
// run flags (both commands register them through
// campaign.RunText.ParseFlags), and writes a recording directory: the spec
// and an engine StateHash ladder sampled every -every cycles. Bisect mode
// compares two recordings and finds the exact first cycle where their
// engine states diverge — binary-searching the hash ladders, re-executing
// both runs to the last common ladder cycle (checking both ladder hashes
// there), and lockstepping from there.
//
// Examples:
//
//	mdxreplay -record -o runA -shape 8x8 -fail rtc:3,4@500 -retransmit
//	mdxreplay -record -o runB -shape 8x8 -fail rtc:3,4@900 -retransmit
//	mdxreplay -bisect runA runB
//
// Recordings of different machine variants (-dxb-separate, -naive-broadcast)
// of the same workload bisect too: that is how the paper's Fig. 9
// deadlock is pinned to the cycle its wait cycle starts forming:
//
//	mdxreplay -record -o fig9 -shape 4x4 -dxb-separate -sxb 0,0 -dxb 0,3 \
//	  -preset rtc:2,1 -patterns 'pair:0,1>2,2' -broadcast 3,2@0 -packet 24 -waves 1 -gap 1
//	mdxreplay -record -o unified -shape 4x4 -sxb 0,0 \
//	  -preset rtc:2,1 -patterns 'pair:0,1>2,2' -broadcast 3,2@0 -packet 24 -waves 1 -gap 1
//	mdxreplay -bisect unified fig9
package main

import (
	"flag"
	"fmt"
	"os"

	"sr2201/internal/campaign"
	"sr2201/internal/replay"
)

func main() {
	var (
		doRecord = flag.Bool("record", false, "record a run's state-hash ladder into -o")
		doBisect = flag.Bool("bisect", false, "bisect two recording directories (positional args)")
		out      = flag.String("o", "", "recording output directory (record mode)")
		every    = flag.Int64("every", 256, "hash-ladder spacing in cycles")
		spec     campaign.RunText
	)
	// The run flags write straight into the recording's spec.
	if err := spec.ParseFlags(flag.CommandLine, os.Args[1:]); err != nil {
		fatal(err)
	}

	switch {
	case *doRecord == *doBisect:
		fatal(fmt.Errorf("pick exactly one of -record or -bisect"))
	case *doRecord:
		if *out == "" {
			fatal(fmt.Errorf("-record needs -o DIR"))
		}
		rec, err := replay.Record(spec, *every, *out)
		if err != nil {
			fatal(campaign.FlagError(err))
		}
		m := rec.Meta
		fmt.Printf("recorded %s: %d cycles, %d ladder points\n", *out, m.Final.Cycle, len(m.Points))
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
			fmt.Printf("no divergence: state streams identical through both runs (re-executed to cycle %d, lockstepped %d)\n",
				d.SeekCycle, d.Stepped)
			return
		}
		if d.Terminated {
			fmt.Printf("termination divergence at cycle %d: one run finished, the other ran on\n", d.Cycle)
		} else {
			fmt.Printf("first divergence at cycle %d: %s != %s\n", d.Cycle, d.HashA, d.HashB)
		}
		fmt.Printf("re-executed to common ladder cycle %d, lockstepped %d cycle(s)\n", d.SeekCycle, d.Stepped)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mdxreplay:", err)
	os.Exit(2)
}
