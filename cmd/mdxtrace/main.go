// Command mdxtrace prints the hop-by-hop route of one packet or broadcast —
// the static path computed by the routing policy and the dynamic trace from
// the simulator — reproducing the paper's figure walkthroughs.
//
// Examples:
//
//	mdxtrace -shape 4x3 -src 0,0 -dst 2,2                  # Fig. 2-style X-Y route
//	mdxtrace -shape 4x3 -src 0,0 -dst 2,2 -fault rtc:2,0   # Fig. 8 detour
//	mdxtrace -shape 4x3 -src 3,2 -broadcast                # Fig. 6 broadcast
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sr2201/internal/cliutil"
	"sr2201/internal/core"
	"sr2201/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code made explicit: 0 for a traced
// packet, 2 for a bad flag or a refused route.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdxtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		shapeStr = fs.String("shape", "4x3", "lattice shape, e.g. 4x3")
		srcStr   = fs.String("src", "0,0", "source PE coordinate")
		dstStr   = fs.String("dst", "", "destination PE coordinate (point-to-point)")
		bcast    = fs.Bool("broadcast", false, "trace a broadcast instead of a point-to-point packet")
		sxbStr   = fs.String("sxb", "", "S-XB fixed coordinate (default all-zero line)")
		faults   faultList
	)
	fs.Var(&faults, "fault", "fault spec rtc:X,Y or xb:DIM:X,Y (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "mdxtrace:", err)
		return 2
	}

	shape, err := cliutil.ParseShape(*shapeStr)
	if err != nil {
		return fatal(err)
	}
	src, err := cliutil.ParseCoord(*srcStr, shape.Dims())
	if err != nil {
		return fatal(err)
	}
	cfg := core.Config{Shape: shape}
	if *sxbStr != "" {
		if cfg.SXB, err = cliutil.ParseCoord(*sxbStr, shape.Dims()); err != nil {
			return fatal(err)
		}
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		return fatal(err)
	}
	for _, fs := range faults {
		f, err := cliutil.ParseFault(fs, shape.Dims())
		if err != nil {
			return fatal(err)
		}
		if err := m.AddFault(f); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "fault installed: %s\n", f)
	}
	fmt.Fprintf(stdout, "effective S-XB: %v   effective D-XB: %v\n\n", m.Policy().EffectiveSXB(), m.Policy().EffectiveDXB())

	rec := trace.Attach(m.Engine())

	var id uint64
	if *bcast {
		tree, err := m.Policy().BroadcastTree(src)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "static broadcast tree from %v: %d PEs, depth %d, %d element traversals\n\n",
			src, len(tree.Delivered), tree.Depth, tree.Elements)
		if id, _, err = m.Broadcast(src, 4); err != nil {
			return fatal(err)
		}
	} else {
		if *dstStr == "" {
			return fatal(fmt.Errorf("need -dst or -broadcast"))
		}
		dst, err := cliutil.ParseCoord(*dstStr, shape.Dims())
		if err != nil {
			return fatal(err)
		}
		path, err := m.Policy().UnicastPath(src, dst)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "static route %v -> %v (%d elements):\n", src, dst, len(path))
		for i, h := range path {
			fmt.Fprintf(stdout, "  step %2d: %s\n", i+1, h)
		}
		fmt.Fprintln(stdout)
		if id, err = m.Send(src, dst, 4); err != nil {
			return fatal(err)
		}
	}

	out := m.Run(100_000)
	fmt.Fprint(stdout, rec.Format(id))
	fmt.Fprintf(stdout, "\ndeliveries: %d", len(m.Deliveries()))
	if !out.Drained {
		fmt.Fprintf(stdout, "   OUTCOME: %+v", out)
	}
	fmt.Fprintln(stdout)
	return 0
}

type faultList []string

func (f *faultList) String() string     { return fmt.Sprint([]string(*f)) }
func (f *faultList) Set(s string) error { *f = append(*f, s); return nil }
