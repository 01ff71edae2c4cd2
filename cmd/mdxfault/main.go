// Command mdxfault runs dynamic-fault schedules. In single mode it drives
// one machine with a scheduled mid-run fault (or several), reporting the
// in-flight casualties of every event and the retransmission accounting. In
// campaign mode it runs the exhaustive resilience campaign: every
// single-fault placement × injection epoch × traffic pattern, aggregated
// into the availability coverage table. Campaign output is byte-identical
// at every -parallel level.
//
// Both modes resolve their flags through campaign.RunText and render through
// the shared runners in internal/campaign, so the stdout of an mdxfault run
// is byte-identical to the artifact the mdxserve job server produces for the
// same spec.
//
// Examples:
//
//	mdxfault -shape 8x8 -fail rtc:3,4@500 -waves 6 -retransmit
//	mdxfault -shape 4x4 -fail xb:0:0,2@200 -fail rtc:1,1@400
//	mdxfault -shape 8x8 -campaign -epochs 12,60 -patterns shift+5,reverse -retransmit
//	mdxfault -shape 4x4 -dxb-separate -preset rtc:2,1 -patterns pair:0,1>2,2 \
//	  -broadcast 3,2@0 -retransmit -retry-after 32 -recover
//	mdxfault -shape 4x4 -topo hyperx -fail link:0,0-3,0@200 -retransmit
//	mdxfault -shape 8 -topo fullmesh -campaign -epochs 12 -patterns shift+3
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"sr2201/internal/campaign"
	"sr2201/internal/sweep"
)

// flagOf names the flag that spells each run-spec field the resolver can
// reject (list fields without their index).
var flagOf = map[string]string{
	"shape":                 "shape",
	"topology":              "topo",
	"fails":                 "fail",
	"presets":               "preset",
	"broadcasts":            "broadcast",
	"pattern":               "patterns",
	"patterns":              "patterns",
	"epochs":                "epochs",
	"waves":                 "waves",
	"gap":                   "gap",
	"packet_size":           "packet",
	"recovery":              "recover",
	"variant.sxb":           "sxb",
	"variant.dxb":           "dxb",
	"variant.dxb_separate":  "dxb-separate",
	"variant.vcs":           "vcs",
	"variant.adaptive":      "adaptive",
	"reconfig.mode":         "reconfig",
	"reconfig.drain_budget": "reconfig-drain",
}

func main() {
	var (
		t          campaign.RunText
		doCampaign = flag.Bool("campaign", false, "run the exhaustive single-fault campaign instead of one schedule")
		epochsStr  = flag.String("epochs", "12", "campaign fault-activation cycles, comma-separated")
		patsStr    = flag.String("patterns", "shift+5", "traffic patterns, comma-separated: shift+K | reverse")
		parallel   = flag.Int("parallel", sweep.DefaultParallel(), "campaign worker-pool width (1 = serial)")
		stateDir   = flag.String("state-dir", "", "campaign checkpoint directory: completed cells persist and are skipped on re-run (campaign mode)")
		ckptEvery  = flag.Int64("checkpoint-every", 4096, "mid-cell snapshot interval in cycles (with -state-dir; 0 = cell granularity only)")
	)
	// Every run-spec flag writes straight into the resolver's input.
	flag.StringVar(&t.Shape, "shape", "8x8", "lattice shape, e.g. 8x8 or 4x4x4")
	flag.StringVar(&t.Topology, "topo", "", "interconnect topology: mdx | hyperx | fullmesh (default mdx)")
	flag.IntVar(&t.Waves, "waves", 4, "traffic waves (one packet per live PE per wave)")
	flag.Int64Var(&t.Gap, "gap", 24, "cycles between waves")
	flag.IntVar(&t.PacketSize, "packet", 0, "packet size in flits (0 = default)")
	flag.BoolVar(&t.Inject.Retransmit, "retransmit", false, "retransmit lost packets from their sources")
	flag.Int64Var(&t.Inject.RetryAfter, "retry-after", 64, "cycles before the first retransmission")
	flag.IntVar(&t.Inject.Backoff, "backoff", 2, "timeout multiplier per further attempt")
	flag.IntVar(&t.Inject.MaxRetries, "max-retries", 4, "retransmission attempts per packet")
	flag.Int64Var(&t.Horizon, "horizon", 50_000, "cycle budget per run")
	flag.Int64Var(&t.Inject.StallThreshold, "stall", 0, "deadlock-watchdog stall threshold (0 = default)")
	flag.BoolVar(&t.Recovery.Enabled, "recover", false, "enable deadlock recovery: purge the lowest-ID packet on a confirmed wait cycle and retransmit it")
	flag.Int64Var(&t.Recovery.StallThreshold, "stall-threshold", 0, "recovery-watchdog zero-movement cycles before a purge (with -recover; 0 = default)")
	flag.IntVar(&t.Recovery.MaxRecoveries, "max-recoveries", 0, "per-packet sacrifice cap before the LIVELOCK verdict (with -recover; 0 = default)")
	flag.StringVar(&t.Variant.SXB, "sxb", "", "static-routing crossbar coordinate, e.g. 0,0 (empty = default)")
	flag.StringVar(&t.Variant.DXB, "dxb", "", "detour crossbar coordinate (with -dxb-separate; empty = default)")
	flag.BoolVar(&t.Variant.DXBSeparate, "dxb-separate", false, "use a separate detour crossbar (the paper's deadlocking D-XB != S-XB design)")
	flag.IntVar(&t.Variant.VCs, "vcs", 0, "virtual channels per physical wire (with -adaptive; 0 = single-lane network)")
	flag.BoolVar(&t.Variant.Adaptive, "adaptive", false, "escape-VC adaptive routing: lanes 1.. take any minimal productive hop, lane 0 is the certified escape channel (needs -vcs >= 2)")
	flag.StringVar(&t.Reconfig.Mode, "reconfig", "", "online routing-table reconfiguration trigger: fault | deadlock | both (empty = off)")
	flag.IntVar(&t.Reconfig.DrainBudget, "reconfig-drain", 0, "max in-flight packets a cyclic transition may purge before falling back to rebuild-in-place (with -reconfig; 0 = default)")
	flag.Var((*stringList)(&t.Fails), "fail", "fault schedule rtc:X,Y@CYCLE or xb:DIM:X,Y@CYCLE (repeatable; single mode)")
	flag.Var((*stringList)(&t.Presets), "preset", "fault installed before any traffic, rtc:X,Y or xb:DIM:X,Y (repeatable)")
	flag.Var((*stringList)(&t.Broadcasts), "broadcast", "broadcast schedule X,Y@CYCLE (repeatable)")
	flag.Parse()
	t.Patterns = campaign.SplitPatterns(*patsStr)

	if *doCampaign {
		var err error
		if t.Epochs, err = campaign.ParseEpochs(*epochsStr); err != nil {
			fatal(fmt.Errorf("-epochs: %w", err))
		}
		cfg, err := t.Config()
		if err != nil {
			fatal(err)
		}
		cfg.Parallel = *parallel
		cfg.CheckpointEvery = *ckptEvery
		if *stateDir != "" {
			if cfg.Store, err = campaign.OpenStore(*stateDir); err != nil {
				fatal(err)
			}
		}
		res, err := campaign.Run(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.String())
		if res.Deadlocks() > 0 || res.Stalls() > 0 || res.Livelocked() > 0 {
			os.Exit(1)
		}
		return
	}

	if len(t.Fails) == 0 && len(t.Presets) == 0 && len(t.Broadcasts) == 0 {
		fatal(fmt.Errorf("single mode needs a -fail schedule, -preset fault or -broadcast (or use -campaign)"))
	}
	if *stateDir != "" {
		fatal(fmt.Errorf("-state-dir applies to campaign mode"))
	}
	spec, err := t.Spec()
	if err != nil {
		fatal(err)
	}
	outcome, err := campaign.RunSingle(spec, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if !outcome.Drained {
		os.Exit(1)
	}
}

// stringList collects a repeatable flag.
type stringList []string

func (l *stringList) String() string     { return fmt.Sprint([]string(*l)) }
func (l *stringList) Set(s string) error { *l = append(*l, s); return nil }

// fatal reports err and exits 2; a resolver rejection is reported under the
// flag that spells the rejected field.
func fatal(err error) {
	var fe *campaign.FieldError
	if errors.As(err, &fe) {
		field, _, _ := strings.Cut(fe.Field, "[")
		if name, ok := flagOf[field]; ok {
			err = fmt.Errorf("-%s: %w", name, fe.Err)
		}
	}
	fmt.Fprintln(os.Stderr, "mdxfault:", err)
	os.Exit(2)
}
