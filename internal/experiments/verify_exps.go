package experiments

import (
	"fmt"
	"strings"

	"sr2201/internal/cdg"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
	"sr2201/internal/stats"
	"sr2201/internal/topo"
	"sr2201/internal/topo/mdx"
)

func init() {
	register(Experiment{ID: "A3", Title: "Pivot extension: reachability vs deadlock freedom", Paper: "DESIGN.md extension", run: runA3})
	register(Experiment{ID: "V1", Title: "Static channel-dependency verification", Paper: "Sec. 5 theorem", run: runV1})
}

// newPolicy builds a routing policy over a fresh fault set.
func newPolicy(shape geom.Shape, cfg routing.Config, fs ...fault.Fault) (*routing.Policy, error) {
	set := fault.NewSet(shape)
	for _, f := range fs {
		if err := set.Add(f); err != nil {
			return nil, err
		}
	}
	cfg.Shape = shape
	cfg.Faults = set
	return routing.New(cfg)
}

// verdict renders a cdg.Result for tables.
func verdict(r cdg.Result) string {
	switch {
	case r.NaiveHazard:
		return fmt.Sprintf("HAZARD (fans share %d channels)", r.SharedFanChannels)
	case r.Acyclic:
		return "acyclic (deadlock-free)"
	default:
		return "CYCLE: " + strings.Join(r.Cycle, " -> ")
	}
}

// runV1 verifies the paper's Section 5 argument statically: the channel
// dependency graph is acyclic for the unified D-XB = S-XB scheme (fault-free
// and under every single fault), cyclic for the separate-D-XB configuration
// of Fig. 9, and hazardous for the unserialized broadcast of Fig. 5.
func runV1(r *Report, opt Options) error {
	shape := geom.MustShape(4, 4)
	if opt.Quick {
		shape = geom.MustShape(3, 3)
	}

	tbl := stats.NewTable(fmt.Sprintf("V1 channel dependency graphs on %s", shape),
		"configuration", "channels", "edges", "verdict")
	pass := true

	// Unified scheme, fault-free.
	p, err := newPolicy(shape, routing.Config{})
	if err != nil {
		return err
	}
	res, err := cdg.Analyze(p, shape, false)
	if err != nil {
		return err
	}
	tbl.AddRow("D-XB = S-XB, fault-free", res.Channels, res.Edges, verdict(res))
	pass = pass && res.Acyclic

	// Unified scheme under every single fault (routers + all crossbars).
	var allFaults []fault.Fault
	shape.Enumerate(func(c geom.Coord) bool {
		allFaults = append(allFaults, fault.RouterFault(c))
		return true
	})
	for _, l := range shape.Lines() {
		allFaults = append(allFaults, fault.XBFault(l))
	}
	cyclicFaults := 0
	for _, f := range allFaults {
		p, err := newPolicy(shape, routing.Config{}, f)
		if err != nil {
			return err
		}
		res, err := cdg.Analyze(p, shape, false)
		if err != nil {
			return err
		}
		if !res.Acyclic {
			cyclicFaults++
		}
	}
	tbl.AddRow(fmt.Sprintf("D-XB = S-XB, each of %d single faults", len(allFaults)), "-", "-",
		fmt.Sprintf("acyclic in %d/%d cases", len(allFaults)-cyclicFaults, len(allFaults)))
	pass = pass && cyclicFaults == 0

	// Separate D-XB with a detour-inducing fault: the Fig. 9 cycle.
	p, err = newPolicy(shape, routing.Config{SXB: geom.Coord{0, 0}, DXB: shape.CoordOf(shape.Size()-1).WithDim(0, 0)},
		fault.RouterFault(geom.Coord{2, 1}))
	if err != nil {
		return err
	}
	res, err = cdg.Analyze(p, shape, false)
	if err != nil {
		return err
	}
	tbl.AddRow("D-XB != S-XB, one faulty RTC (Fig. 9)", res.Channels, res.Edges, verdict(res))
	pass = pass && !res.Acyclic

	// Naive broadcast: the Fig. 5 hazard.
	p, err = newPolicy(shape, routing.Config{NaiveBroadcast: true})
	if err != nil {
		return err
	}
	res, err = cdg.Analyze(p, shape, true)
	if err != nil {
		return err
	}
	tbl.AddRow("naive broadcast (no S-XB)", res.Channels, res.Edges, verdict(res))
	pass = pass && res.NaiveHazard

	r.Tables = append(r.Tables, tbl)
	r.Pass = pass
	r.Notef("the static verdicts match the dynamic experiments E1/E4/E5 exactly")
	return nil
}

// runA3 evaluates the pivot extension, kept as the refuted scheme
// mdx.Pivot: it restores every destination behind a faulty last-dimension
// crossbar, but the channel dependency graph becomes cyclic — the guarantee
// the paper preserves by confining non-dimension-order turns to the S-XB.
func runA3(r *Report, opt Options) error {
	shape := geom.MustShape(4, 4)
	badLine := geom.Line{Dim: 1, Fixed: geom.Coord{2, 0}}
	set := fault.NewSet(shape)
	if err := set.Add(fault.XBFault(badLine)); err != nil {
		return err
	}
	piv, err := mdx.NewPivot(routing.Config{Shape: shape, Faults: set})
	if err != nil {
		return err
	}

	// Reachability with and without the pivot.
	var baseReach, baseUnreach, pivReach, pivUnreach int
	shape.Enumerate(func(src geom.Coord) bool {
		shape.Enumerate(func(dst geom.Coord) bool {
			switch {
			case src == dst:
			case piv.Policy().Reachable(src, dst) == nil:
				baseReach++
				pivReach++
			default:
				baseUnreach++
				if _, e := piv.Route(src, dst); e == nil {
					pivReach++
				} else {
					pivUnreach++
				}
			}
			return true
		})
		return true
	})

	// Static verdicts.
	resBase, err := cdg.Analyze(piv.Policy(), shape, false)
	if err != nil {
		return err
	}
	cert, err := topo.Certify(piv)
	if err != nil {
		return err
	}
	resPiv := cdg.Result{Channels: cert.Channels, Edges: cert.Edges, Acyclic: cert.Acyclic, Cycle: cert.Cycle}

	tbl := stats.NewTable(fmt.Sprintf("A3 faulty last-dimension crossbar %v on %s", badLine, shape),
		"scheme", "reachable pairs", "unreachable", "dependency graph")
	tbl.AddRow("paper facility", baseReach, baseUnreach, verdict(resBase))
	tbl.AddRow("pivot extension", pivReach, pivUnreach, verdict(resPiv))
	r.Tables = append(r.Tables, tbl)

	// With a single faulty crossbar the pivot should restore every pair.
	r.Pass = pivUnreach == 0 && pivReach > baseReach && resBase.Acyclic && !resPiv.Acyclic
	r.Notef("the pivot restores all %d previously unreachable pairs at the cost of the acyclicity guarantee", baseUnreach)
	return nil
}
