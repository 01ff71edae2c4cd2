// Command mdxsim runs one workload on a simulated SR2201 multi-dimensional
// crossbar network (or any other topology core.Machine hosts: the mesh and
// torus baselines, hyperx, fullmesh) and reports throughput, latency and
// contention.
//
// Examples:
//
//	mdxsim -shape 8x8 -load 0.1 -cycles 2000
//	mdxsim -shape 4x4x4 -pattern transpose -load 0.05
//	mdxsim -shape 8x8 -fault rtc:3,4 -load 0.08 -bcast 0.001
//	mdxsim -shape 8x8 -topology mesh -pattern uniform -load 0.1
//	mdxsim -shape 6x6 -topology torus-novc       # exit 1: the ring deadlocks
//	mdxsim -shape 4x4 -naive-broadcast -bcast 0.01   # reproduces Fig. 5 deadlock
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sr2201/internal/cliutil"
	"sr2201/internal/core"
	"sr2201/internal/engine"
	"sr2201/internal/geom"
	"sr2201/internal/stats"
	"sr2201/internal/traffic"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// flagOf spells the core.Config fields the flags set, so a knob the chosen
// topology cannot honour is refused under the name the user typed.
var flagOf = map[string]string{
	"Topology":       "-topology",
	"NaiveBroadcast": "-naive-broadcast",
	"DXBSeparate":    "-dxb",
	"VCs":            "-vcs",
	"Adaptive":       "-adaptive",
}

// run is main with its streams and exit code made explicit: 0 for a finished
// run, 1 for a confirmed deadlock, 2 for a refused invocation.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdxsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		shapeStr = fs.String("shape", "8x8", "lattice shape, e.g. 8x8 or 4x4x4")
		topology = fs.String("topology", "xbar", "xbar | "+strings.Join(core.Topologies()[1:], " | "))
		pattern  = fs.String("pattern", "uniform", "uniform | transpose | bitreverse | shuffle | hotspot | ring | tree")
		load     = fs.Float64("load", 0.05, "offered load, packets per PE per cycle")
		bcast    = fs.Float64("bcast", 0, "broadcast rate, broadcasts per PE per cycle (xbar only)")
		size     = fs.Int("packet", 8, "packet size in flits")
		buffers  = fs.Int("buffers", 2, "input buffer depth in flits")
		warmup   = fs.Int64("warmup", 500, "warmup cycles (not measured)")
		cycles   = fs.Int64("cycles", 2000, "measured cycles")
		seed     = fs.Int64("seed", 1, "workload random seed")
		naive    = fs.Bool("naive-broadcast", false, "disable S-XB serialization (deadlock-prone, Fig. 5; xbar only)")
		sepDXB   = fs.String("dxb", "", "separate D-XB fixed coordinate (deadlock-prone, Fig. 9; xbar only), e.g. 0,3")
		vcs      = fs.Int("vcs", 0, "virtual channels per physical wire (with -adaptive; 0 = single-lane network; xbar only)")
		adaptive = fs.Bool("adaptive", false, "escape-VC adaptive routing (needs -vcs >= 2; xbar only)")
		topPorts = fs.Int("topports", 0, "print the N busiest network channels after the run")
		faults   faultList
	)
	fs.Var(&faults, "fault", "fault spec rtc:X,Y, xb:DIM:X,Y (xbar) or link:A-B (hyperx, fullmesh); repeatable")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatal := func(err error) int {
		var fe *core.FieldError
		if errors.As(err, &fe) && flagOf[fe.Field] != "" {
			err = fmt.Errorf("%s: %s", flagOf[fe.Field], fe.Msg)
		}
		fmt.Fprintln(stderr, "mdxsim:", err)
		return 2
	}

	shape, err := cliutil.ParseShape(*shapeStr)
	if err != nil {
		return fatal(err)
	}
	// Which knobs a topology honours is core.Config.Validate's statement;
	// the flags pass straight through ("xbar" is this tool's name for mdx).
	cfg := core.Config{
		Shape:          shape,
		Topology:       *topology,
		NaiveBroadcast: *naive,
		VCs:            *vcs,
		Adaptive:       *adaptive,
		Engine:         engine.Config{BufferDepth: *buffers},
	}
	if cfg.Topology == "xbar" {
		cfg.Topology = core.TopologyMDX
	}
	if *sepDXB != "" {
		if cfg.DXB, err = cliutil.ParseCoord(*sepDXB, shape.Dims()); err != nil {
			return fatal(err)
		}
		cfg.DXBSeparate = true
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return fatal(err)
	}
	if *bcast > 0 && m.Topology() != core.TopologyMDX {
		return fatal(fmt.Errorf("-bcast: topology %q has no hardware broadcast", *topology))
	}
	for _, spec := range faults {
		f, err := cliutil.ParseFault(spec, shape.Dims())
		if err != nil {
			return fatal(err)
		}
		if err := m.AddFault(f); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "fault installed: %s", f)
		if p := m.Policy(); p != nil {
			fmt.Fprintf(stdout, " (effective S-XB %v, D-XB %v)", p.EffectiveSXB(), p.EffectiveDXB())
		}
		fmt.Fprintln(stdout)
	}

	pat, err := pickPattern(*pattern, shape)
	if err != nil {
		return fatal(err)
	}

	d := traffic.Driver{
		M:             m,
		Pattern:       pat,
		Rate:          *load,
		BroadcastRate: *bcast,
		Size:          *size,
		Seed:          *seed,
		Warmup:        *warmup,
		Measure:       *cycles,
	}
	res := d.Run()

	fmt.Fprintf(stdout, "topology=%s shape=%s pattern=%s load=%.3f bcast=%.4f packet=%d buffers=%d\n",
		*topology, shape, pat.Name(), *load, *bcast, *size, *buffers)
	fmt.Fprintf(stdout, "offered packets:      %d\n", res.Offered)
	fmt.Fprintf(stdout, "delivered packets:    %d\n", res.Delivered)
	if res.BroadcastCopies > 0 {
		fmt.Fprintf(stdout, "broadcast copies:     %d\n", res.BroadcastCopies)
	}
	fmt.Fprintf(stdout, "accepted throughput:  %.4f pkts/PE/cycle\n", res.Throughput)
	fmt.Fprintf(stdout, "latency:              %s\n", res.Latency)
	fmt.Fprintf(stdout, "port conflicts:       %d\n", res.Conflicts)
	fmt.Fprintf(stdout, "source backlog:       %d flits\n", res.Backlog)
	if *topPorts > 0 {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, stats.UtilizationTable(m.Engine(), *topPorts))
	}
	switch {
	case res.Deadlocked:
		fmt.Fprintln(stdout, "outcome:              DEADLOCK (cyclic wait confirmed)")
		return 1
	case res.Drained:
		fmt.Fprintln(stdout, "outcome:              drained")
	default:
		fmt.Fprintln(stdout, "outcome:              drain budget exceeded (network still moving)")
	}
	return 0
}

func pickPattern(name string, shape geom.Shape) (traffic.Pattern, error) {
	switch name {
	case "uniform":
		return traffic.Uniform{Shape: shape}, nil
	case "transpose":
		return traffic.Transpose{Shape: shape}, nil
	case "bitreverse":
		return traffic.BitReverse{Shape: shape}, nil
	case "shuffle":
		return traffic.Shuffle{Shape: shape}, nil
	case "hotspot":
		return traffic.Hotspot{Shape: shape, Hot: geom.Coord{}, Fraction: 0.2}, nil
	case "ring":
		return traffic.RingNeighbor{Shape: shape}, nil
	case "tree":
		return traffic.TreeParent{Shape: shape}, nil
	default:
		return nil, fmt.Errorf("unknown pattern %q", name)
	}
}

// faultList collects repeated -fault flags.
type faultList []string

func (f *faultList) String() string     { return fmt.Sprint([]string(*f)) }
func (f *faultList) Set(s string) error { *f = append(*f, s); return nil }
