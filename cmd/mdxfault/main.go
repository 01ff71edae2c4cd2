// Command mdxfault runs dynamic-fault schedules. In single mode it drives
// one machine with a scheduled mid-run fault (or several), reporting the
// in-flight casualties of every event and the retransmission accounting. In
// campaign mode it runs the exhaustive resilience campaign: every
// single-fault placement × injection epoch × traffic pattern, aggregated
// into the availability coverage table. Campaign output is byte-identical
// at every -parallel level.
//
// Both modes parse their run flags with campaign.RunText.ParseFlags (the
// registration mdxreplay shares), resolve them through RunText and render
// through the shared runners in internal/campaign, so the stdout of an
// mdxfault run is byte-identical to the artifact the mdxserve job server
// produces for the same spec.
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
	"flag"
	"fmt"
	"os"

	"sr2201/internal/campaign"
	"sr2201/internal/sweep"
)

func main() {
	var (
		t          campaign.RunText
		doCampaign = flag.Bool("campaign", false, "run the exhaustive single-fault campaign instead of one schedule")
		epochsStr  = flag.String("epochs", "12", "campaign fault-activation cycles, comma-separated")
		parallel   = flag.Int("parallel", sweep.DefaultParallel(), "campaign worker-pool width (1 = serial)")
		stateDir   = flag.String("state-dir", "", "campaign result directory: completed cells persist and are skipped on re-run (campaign mode)")
	)
	// Every run flag writes straight into the resolver's input.
	if err := t.ParseFlags(flag.CommandLine, os.Args[1:]); err != nil {
		fatal(err)
	}

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

// fatal reports err and exits 2; a resolver rejection is reported under the
// flag that spells the rejected field.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mdxfault:", campaign.FlagError(err))
	os.Exit(2)
}
