package campaign

import (
	"errors"
	"flag"
	"fmt"
	"strings"
)

// ParseFlags registers the run flags on fs, parses args and fills t from
// them. It is the one command-line spelling of a RunText: mdxfault and
// mdxreplay both parse through it, after registering their own flags on fs.
func (t *RunText) ParseFlags(fs *flag.FlagSet, args []string) error {
	var patterns string
	fs.StringVar(&t.Shape, "shape", "8x8", "lattice shape, e.g. 8x8 or 4x4x4")
	fs.StringVar(&t.Topology, "topo", "", "interconnect topology: mdx | hyperx | fullmesh (default mdx)")
	fs.StringVar(&patterns, "patterns", "shift+5", "traffic patterns, comma-separated: shift+K | reverse")
	fs.IntVar(&t.Waves, "waves", 4, "traffic waves (one packet per live PE per wave)")
	fs.Int64Var(&t.Gap, "gap", 24, "cycles between waves")
	fs.IntVar(&t.PacketSize, "packet", 0, "packet size in flits (0 = default)")
	fs.Int64Var(&t.Horizon, "horizon", 50_000, "cycle budget per run")
	fs.BoolVar(&t.Inject.Retransmit, "retransmit", false, "retransmit lost packets from their sources")
	fs.Int64Var(&t.Inject.RetryAfter, "retry-after", 64, "cycles before the first retransmission")
	fs.IntVar(&t.Inject.Backoff, "backoff", 2, "timeout multiplier per further attempt")
	fs.IntVar(&t.Inject.MaxRetries, "max-retries", 4, "retransmission attempts per packet")
	fs.Int64Var(&t.Inject.StallThreshold, "stall", 0, "deadlock-watchdog stall threshold (0 = default)")
	fs.BoolVar(&t.Recovery.Enabled, "recover", false, "enable deadlock recovery: purge the lowest-ID packet on a confirmed wait cycle and retransmit it")
	fs.Int64Var(&t.Recovery.StallThreshold, "stall-threshold", 0, "recovery-watchdog zero-movement cycles before a purge (with -recover; 0 = default)")
	fs.IntVar(&t.Recovery.MaxRecoveries, "max-recoveries", 0, "per-packet sacrifice cap before the LIVELOCK verdict (with -recover; 0 = default)")
	fs.StringVar(&t.Variant.SXB, "sxb", "", "static-routing crossbar coordinate, e.g. 0,0 (empty = default)")
	fs.StringVar(&t.Variant.DXB, "dxb", "", "detour crossbar coordinate (with -dxb-separate; empty = default)")
	fs.BoolVar(&t.Variant.DXBSeparate, "dxb-separate", false, "use a separate detour crossbar (the paper's deadlocking D-XB != S-XB design)")
	fs.IntVar(&t.Variant.VCs, "vcs", 0, "virtual channels per physical wire (with -adaptive; 0 = single-lane network)")
	fs.BoolVar(&t.Variant.Adaptive, "adaptive", false, "escape-VC adaptive routing: lanes 1.. take any minimal productive hop, lane 0 is the certified escape channel (needs -vcs >= 2)")
	fs.StringVar(&t.Reconfig.Mode, "reconfig", "", "online routing-table reconfiguration trigger: fault | deadlock | both (empty = off)")
	fs.BoolVar(&t.NaiveBroadcast, "naive-broadcast", false, "disable S-XB serialization (paper Fig. 5 scheme)")
	fs.Var((*stringList)(&t.Fails), "fail", "fault schedule rtc:X,Y@CYCLE or xb:DIM:X,Y@CYCLE (repeatable; single mode)")
	fs.Var((*stringList)(&t.Presets), "preset", "fault installed before any traffic, rtc:X,Y or xb:DIM:X,Y (repeatable)")
	fs.Var((*stringList)(&t.Broadcasts), "broadcast", "broadcast schedule X,Y@CYCLE (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t.Patterns = SplitPatterns(patterns)
	return nil
}

// stringList collects a repeatable flag.
type stringList []string

func (l *stringList) String() string     { return fmt.Sprint([]string(*l)) }
func (l *stringList) Set(s string) error { *l = append(*l, s); return nil }

// flagOf names the flag that spells each field the resolver can reject
// (list fields without their index). -epochs is mdxfault's own flag.
var flagOf = map[string]string{
	"shape":                "shape",
	"topology":             "topo",
	"fails":                "fail",
	"presets":              "preset",
	"broadcasts":           "broadcast",
	"pattern":              "patterns",
	"patterns":             "patterns",
	"epochs":               "epochs",
	"waves":                "waves",
	"gap":                  "gap",
	"packet_size":          "packet",
	"recovery":             "recover",
	"variant.sxb":          "sxb",
	"variant.dxb":          "dxb",
	"variant.dxb_separate": "dxb-separate",
	"variant.vcs":          "vcs",
	"variant.adaptive":     "adaptive",
	"reconfig.mode":        "reconfig",
	"naive_broadcast":      "naive-broadcast",
}

// FlagError reports a resolver rejection under the flag that spells the
// rejected field ("-gap: ..."); any other error passes through.
func FlagError(err error) error {
	var fe *FieldError
	if errors.As(err, &fe) {
		field, _, _ := strings.Cut(fe.Field, "[")
		if name, ok := flagOf[field]; ok {
			return fmt.Errorf("-%s: %w", name, fe.Err)
		}
	}
	return err
}
