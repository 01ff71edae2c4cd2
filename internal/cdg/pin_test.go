package cdg_test

// Pins the refactor of Analyze onto the topo prover: every number below
// was captured from the pre-refactor analyzer (this repo at PR 6), so the
// topology-agnostic Builder provably reproduces the historical Section 5
// results byte for byte — channel counts, edge counts, verdicts, and the
// exact cycle witnesses; the pivot-xbfault pin is the certificate of the
// refuted topo/mdx Pivot scheme. The second test closes the loop the other
// way: the topo/mdx reference scheme certified through topo.Certify must
// agree with cdg.Analyze exactly.

import (
	"fmt"
	"reflect"
	"testing"

	"sr2201/internal/cdg"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
	"sr2201/internal/topo"
	"sr2201/internal/topo/mdx"
)

type pinCase struct {
	name     string
	shape    geom.Shape
	cfg      routing.Config
	naive    bool
	pivot    bool // certify mdx.Pivot over cfg instead of Analyze
	channels int
	edges    int
	acyclic  bool
	hazard   bool
	shared   int
	cycle    []string
}

func pinCases(t *testing.T) []pinCase {
	t.Helper()
	sh44 := geom.MustShape(4, 4)
	fig9 := fault.NewSet(sh44)
	if err := fig9.Add(fault.RouterFault(geom.Coord{2, 1})); err != nil {
		t.Fatal(err)
	}
	pivotFault := fault.NewSet(sh44)
	if err := pivotFault.Add(fault.XBFault(geom.Line{Dim: 1, Fixed: geom.Coord{2, 0}})); err != nil {
		t.Fatal(err)
	}
	cases := []pinCase{
		{name: "unified-3x3", shape: geom.MustShape(3, 3), cfg: routing.Config{Shape: geom.MustShape(3, 3)},
			channels: 25, edges: 45, acyclic: true},
		{name: "unified-4x3", shape: geom.MustShape(4, 3), cfg: routing.Config{Shape: geom.MustShape(4, 3)},
			channels: 33, edges: 68, acyclic: true},
		{name: "unified-4x4", shape: sh44, cfg: routing.Config{Shape: sh44},
			channels: 45, edges: 96, acyclic: true},
		{name: "unified-3x3x2", shape: geom.MustShape(3, 3, 2), cfg: routing.Config{Shape: geom.MustShape(3, 3, 2)},
			channels: 79, edges: 147, acyclic: true},
		{name: "unified-6", shape: geom.MustShape(6), cfg: routing.Config{Shape: geom.MustShape(6)},
			channels: 7, edges: 6, acyclic: true},
		{name: "sep-dxb-fig9", shape: sh44,
			cfg:      routing.Config{Shape: sh44, Faults: fig9, SXB: geom.Coord{0, 0}, DXB: geom.Coord{0, 3}},
			channels: 43, edges: 89, acyclic: false,
			cycle: []string{"RTC(0,3).out0", "XB0(0,3).out2", "RTC(2,3).out1", "XB1(2,0).out0", "RTC(2,0).out0", "BROADCAST-TREE"}},
		{name: "sep-dxb-nofault", shape: sh44,
			cfg:      routing.Config{Shape: sh44, SXB: geom.Coord{0, 0}, DXB: geom.Coord{0, 3}},
			channels: 45, edges: 96, acyclic: true},
		{name: "naive-4x3", shape: geom.MustShape(4, 3),
			cfg:   routing.Config{Shape: geom.MustShape(4, 3), NaiveBroadcast: true},
			naive: true, channels: 60, edges: 96, acyclic: false, hazard: true, shared: 26},
		{name: "naive-5", shape: geom.MustShape(5),
			cfg:   routing.Config{Shape: geom.MustShape(5), NaiveBroadcast: true},
			naive: true, channels: 15, edges: 25, acyclic: false, hazard: true, shared: 8},
		{name: "pivot-xbfault", shape: sh44,
			cfg: routing.Config{Shape: sh44, Faults: pivotFault}, pivot: true,
			channels: 44, edges: 88, acyclic: false,
			cycle: []string{"RTC(0,1).out0", "XB0(0,1).out1", "RTC(1,1).out1", "XB1(1,0).out0", "RTC(1,0).out0", "BROADCAST-TREE"}},
	}
	// Every single-router-fault placement on 4x3 lands on the same counts:
	// the substitution rule keeps the degraded graph isomorphic.
	sh43 := geom.MustShape(4, 3)
	sh43.Enumerate(func(c geom.Coord) bool {
		fs := fault.NewSet(sh43)
		if err := fs.Add(fault.RouterFault(c)); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, pinCase{
			name: fmt.Sprintf("unified-4x3-rtc%v", c), shape: sh43,
			cfg:      routing.Config{Shape: sh43, Faults: fs},
			channels: 31, edges: 59, acyclic: true,
		})
		return true
	})
	return cases
}

// analyzePin is the analysis a pin case records: cdg.Analyze of its policy,
// or the certificate of the pivot scheme in the same form.
func analyzePin(tc pinCase) (cdg.Result, error) {
	if tc.pivot {
		s, err := mdx.NewPivot(tc.cfg)
		if err != nil {
			return cdg.Result{}, err
		}
		cert, err := topo.Certify(s)
		return cdg.Result{Channels: cert.Channels, Edges: cert.Edges, Acyclic: cert.Acyclic, Cycle: cert.Cycle}, err
	}
	p, err := routing.New(tc.cfg)
	if err != nil {
		return cdg.Result{}, err
	}
	return cdg.Analyze(p, tc.shape, tc.naive)
}

// TestAnalyzePinnedToPreTopoOutput locks Analyze, now driven through the
// topo Builder, to the output of the historical cdg-internal builder.
func TestAnalyzePinnedToPreTopoOutput(t *testing.T) {
	for _, tc := range pinCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r, err := analyzePin(tc)
			if err != nil {
				t.Fatal(err)
			}
			if r.Channels != tc.channels || r.Edges != tc.edges || r.Acyclic != tc.acyclic ||
				r.NaiveHazard != tc.hazard || r.SharedFanChannels != tc.shared {
				t.Errorf("got channels=%d edges=%d acyclic=%v hazard=%v shared=%d, pinned channels=%d edges=%d acyclic=%v hazard=%v shared=%d",
					r.Channels, r.Edges, r.Acyclic, r.NaiveHazard, r.SharedFanChannels,
					tc.channels, tc.edges, tc.acyclic, tc.hazard, tc.shared)
			}
			if len(tc.cycle) > 0 && !reflect.DeepEqual(r.Cycle, tc.cycle) {
				t.Errorf("cycle witness diverged:\n got %v\npinned %v", r.Cycle, tc.cycle)
			}
		})
	}
}

// TestMdxSchemeCertificateMatchesAnalyze drives the same configurations
// through the topo/mdx reference scheme and requires topo.Certify to
// agree with cdg.Analyze exactly (the naive analysis is cdg-only: the
// contraction is unsound without serialization, so the scheme does not
// model it, and the pivot extension is no configuration Analyze takes).
func TestMdxSchemeCertificateMatchesAnalyze(t *testing.T) {
	for _, tc := range pinCases(t) {
		if tc.naive || tc.pivot {
			continue
		}
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s, err := mdx.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			cert, err := topo.Certify(s)
			if err != nil {
				t.Fatal(err)
			}
			r, err := cdg.Analyze(s.Policy(), tc.shape, false)
			if err != nil {
				t.Fatal(err)
			}
			if cert.Channels != r.Channels || cert.Edges != r.Edges || cert.Acyclic != r.Acyclic ||
				!reflect.DeepEqual(cert.Cycle, r.Cycle) {
				t.Errorf("certificate %+v != analyze %+v", cert, r)
			}
		})
	}
}

// The pivot extension restores reachability but breaks the acyclicity
// guarantee: its second dim-0 leg is a Y->X turn away from the S-XB, and
// the channel RTC.out0 it waits on is shared with ordinary source traffic
// heading to healthy columns — closing multi-packet cycles. This is the
// static form of why the paper confines non-dimension-order turns to the
// serialized crossbar.
func TestPivotExtensionBreaksAcyclicity(t *testing.T) {
	shape := geom.MustShape(4, 4)
	f := fault.XBFault(geom.Line{Dim: 1, Fixed: geom.Coord{2, 0}})
	set := fault.NewSet(shape)
	if err := set.Add(f); err != nil {
		t.Fatal(err)
	}
	piv, err := mdx.NewPivot(routing.Config{Shape: shape, Faults: set})
	if err != nil {
		t.Fatal(err)
	}

	// Base facility under the same fault: acyclic (it simply refuses the
	// cut-off destinations).
	resBase, err := cdg.Analyze(piv.Policy(), shape, false)
	if err != nil {
		t.Fatal(err)
	}
	if !resBase.Acyclic {
		t.Fatalf("base facility cyclic under %v: %v", f, resBase.Cycle)
	}

	// With the pivot: cyclic.
	cert, err := topo.Certify(piv)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Acyclic {
		t.Fatal("pivot-extended CDG unexpectedly acyclic")
	}
	if len(cert.Cycle) < 3 {
		t.Errorf("cycle suspiciously short: %v", cert.Cycle)
	}
}
