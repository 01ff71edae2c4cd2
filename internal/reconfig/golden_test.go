package reconfig_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"sr2201/internal/campaign"
	"sr2201/internal/cdg"
	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
	"sr2201/internal/reconfig"
	"sr2201/internal/recovery"
	"sr2201/internal/routing"
	"sr2201/internal/topo"
)

// The goldens under testdata/ were recorded from the prover as it stood
// before channels were integer-keyed and the candidate was registered once
// (string-keyed builder, three pair walks per attempt). They hold every
// reconfiguration event line together with the full text of its refusal,
// candidate and union certificates — scheme, channel and edge counts,
// verdict and the cycle witness in order — so any drift in vertex
// numbering, edge insertion order or contraction shows up as a byte diff.
var updateGoldens = flag.Bool("update", false, "rewrite the reconfiguration goldens under testdata/")

// renderEvent is the golden form of one event.
func renderEvent(ev reconfig.Event) string {
	var b strings.Builder
	b.WriteString(ev.String() + "\n")
	cert := func(label string, c topo.Certificate) {
		if c.Scheme == "" {
			return
		}
		b.WriteString("  " + label + ":\n")
		for _, line := range strings.Split(strings.TrimSuffix(c.String(), "\n"), "\n") {
			b.WriteString("    " + line + "\n")
		}
	}
	for i, c := range ev.Refusals {
		cert(fmt.Sprintf("refusal[%d]", i), c)
	}
	for i, e := range ev.Errors {
		fmt.Fprintf(&b, "  error[%d]: %s\n", i, e)
	}
	cert("candidate", ev.Candidate)
	cert("union", ev.Union)
	return b.String()
}

// eventLog collects rendered events from a (serial) campaign or cell.
type eventLog struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *eventLog) take(ev reconfig.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.b.WriteString(renderEvent(ev))
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: first difference at line %d:\n got: %s\nwant: %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, golden has %d", name, len(gl), len(wl))
}

// fig9Cell is the experiments' DR1 cell: the 4x4 separate-D-XB machine whose
// router (2,1) dies mid-run, a unicast pair and a crossing broadcast.
func fig9Cell(mode string, faultAt, bcastAt, wave2At int64) campaign.Spec {
	return campaign.Spec{
		Shape:       geom.MustShape(4, 4),
		SXB:         geom.Coord{0, 0},
		DXB:         geom.Coord{0, 3},
		DXBSeparate: true,
		Events:      []inject.Event{{Cycle: faultAt, Fault: fault.RouterFault(geom.Coord{2, 1})}},
		Pattern:     campaign.Pair(geom.Coord{0, 1}, geom.Coord{2, 2}, 2),
		Waves:       2,
		Gap:         wave2At,
		PacketSize:  24,
		Broadcasts:  []campaign.Broadcast{{Cycle: bcastAt, Src: geom.Coord{3, 2}, Size: 24}},
		Inject:      inject.Options{Retransmit: true, RetryAfter: 32, StallThreshold: 256},
		Recovery:    recovery.Options{Enabled: true, StallThreshold: 256},
		Reconfig:    mode,
		Horizon:     20_000,
	}
}

func runCellLog(t *testing.T, log *eventLog, title string, spec campaign.Spec) {
	t.Helper()
	log.b.WriteString("== " + title + "\n")
	spec.OnReconfig = log.take
	if _, err := campaign.RunCell(spec); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenDR1 replays the reconfigured DR1 cells of internal/experiments
// (same parameters: quiet-window hot swap, both-classes-in-flight cyclic
// union with the separate-D-XB refusal), the same machine with its fault
// preset reconfiguring from the deadlock hand-off, and faults landing with a
// wave in flight on 6x6 — the benchmark's fault job shape — and on 4x4x4.
func TestGoldenDR1(t *testing.T) {
	var log eventLog
	runCellLog(t, &log, "dr1 hot swap (fault at 40, quiet network)", fig9Cell(core.ReconfigOnFault, 40, 48, 48))
	cyclic := fig9Cell(core.ReconfigOnFault, 8, 0, 48)
	cyclic.Pattern = campaign.Pair(geom.Coord{0, 0}, geom.Coord{3, 3}, 2)
	runCellLog(t, &log, "dr1 cyclic union (fault at 8, unicast and broadcast in flight)", cyclic)
	// Under mode both a mid-run fault would hot-swap as in the first cell,
	// so the deadlock-triggered cell sets its fault before any traffic.
	preset := fig9Cell(core.ReconfigBoth, 40, 48, 48)
	preset.Preset, preset.Events = []fault.Fault{preset.Events[0].Fault}, nil
	runCellLog(t, &log, "dr1 deadlock-triggered (fault preset, deadlocks after 48)", preset)
	runCellLog(t, &log, "dr1 mode both", fig9Cell(core.ReconfigBoth, 40, 48, 48))

	for _, tc := range []struct {
		shape    geom.Shape
		f        fault.Fault
		separate bool
	}{
		{geom.MustShape(6, 6), fault.RouterFault(geom.Coord{3, 2}), false},
		{geom.MustShape(6, 6), fault.XBFault(geom.Line{Dim: 1, Fixed: geom.Coord{4, 0}}), false},
		{geom.MustShape(6, 6), fault.RouterFault(geom.Coord{1, 4}), true},
		{geom.MustShape(4, 4, 4), fault.RouterFault(geom.Coord{2, 1, 3}), false},
		{geom.MustShape(4, 4, 4), fault.XBFault(geom.Line{Dim: 2, Fixed: geom.Coord{1, 2, 0}}), true},
	} {
		pat, err := campaign.ParsePattern("shift+5")
		if err != nil {
			t.Fatal(err)
		}
		spec := campaign.Spec{
			Shape:      tc.shape,
			Events:     []inject.Event{{Cycle: 6, Fault: tc.f}},
			Pattern:    pat,
			Waves:      2,
			Gap:        40,
			PacketSize: 16,
			Broadcasts: []campaign.Broadcast{{Cycle: 2, Src: tc.shape.CoordOf(tc.shape.Size() - 2), Size: 16}},
			Inject:     inject.Options{Retransmit: true},
			Recovery:   recovery.Options{Enabled: true, StallThreshold: 256},
			Reconfig:   core.ReconfigBoth,
			Horizon:    20_000,
		}
		if tc.separate {
			spec.DXBSeparate = true
			spec.DXB = tc.shape.CoordOf(tc.shape.Size() - 1)
		}
		runCellLog(t, &log, fmt.Sprintf("%s wave in flight, %s, separate=%v", tc.shape, tc.f, tc.separate), spec)
	}
	checkGolden(t, "dr1_events.golden", log.b.String())
}

// TestGoldenDR2 replays the DR2 second-fault sweep (full-scale parameters of
// internal/experiments: every additional placement on the Fig. 9 machine at
// two epochs, mode both).
func TestGoldenDR2(t *testing.T) {
	var log eventLog
	cfg := campaign.Config{
		Shape:       geom.MustShape(4, 4),
		SXB:         geom.Coord{0, 0},
		DXB:         geom.Coord{0, 3},
		DXBSeparate: true,
		Preset:      []fault.Fault{fault.RouterFault(geom.Coord{2, 1})},
		Epochs:      []int64{40, 120},
		Patterns:    []campaign.Pattern{campaign.Pair(geom.Coord{0, 1}, geom.Coord{2, 2}, 2)},
		Waves:       2,
		Gap:         30,
		PacketSize:  24,
		Broadcasts:  []campaign.Broadcast{{Cycle: 0, Src: geom.Coord{3, 2}, Size: 24}},
		Inject:      inject.Options{Retransmit: true, RetryAfter: 32, StallThreshold: 256},
		Recovery:    recovery.Options{Enabled: true, StallThreshold: 256},
		Horizon:     20_000,
		Reconfig:    core.ReconfigBoth,
		Parallel:    1,
		Hooks:       campaign.Hooks{OnReconfig: log.take},
	}
	if _, err := campaign.Run(cfg); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "dr2_events.golden", log.b.String())
}

// ciCampaign is the CI workflow's Fig. 9 second-fault reconfiguration
// campaign (the SIGTERM-and-resume job spec) on a thinned epoch list: same
// machine, presets, patterns, broadcasts and options, 276 cells.
func ciCampaign() campaign.RunText {
	return campaign.RunText{
		Shape:      "4x4",
		Epochs:     []int64{40, 160, 300, 500},
		Patterns:   []string{"pair:0,1>2,2", "shift+5", "reverse"},
		Waves:      6,
		Gap:        100,
		PacketSize: 24,
		Presets:    []string{"rtc:2,1"},
		Broadcasts: []string{"3,2@0", "1,3@150", "0,2@300"},
		Inject:     inject.Options{Retransmit: true, RetryAfter: 32, StallThreshold: 256},
		Recovery:   recovery.Options{Enabled: true, StallThreshold: 256},
		Variant:    campaign.VariantText{SXB: "0,0", DXB: "0,3", DXBSeparate: true},
		Reconfig:   campaign.ReconfigText{Mode: "both"},
	}
}

// TestGoldenCICampaign replays ciCampaign and pins its reconfiguration
// events.
func TestGoldenCICampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign replay skipped in -short")
	}
	var log eventLog
	cfg, err := ciCampaign().Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 1
	cfg.OnReconfig = log.take
	if _, err := campaign.Run(cfg); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ci_campaign_events.golden", log.b.String())
}

// deadlocksUnderVariantRebuild are the cells of ciCampaign, run without
// recovery in mode fault, that deadlock while a fallback rebuilds the
// machine's current variant in place. On this separate-D-XB machine that
// re-installs the scheme the attempt has just refused with a cycle witness
// whenever its candidate is the unified one (ROADMAP 22(b)).
var deadlocksUnderVariantRebuild = strings.Fields(`
router@(0,0)@40/pair:0,1>2,2 router@(0,0)@40/reverse router@(0,0)@160/pair:0,1>2,2
router@(0,0)@300/pair:0,1>2,2 router@(0,0)@300/reverse
router@(1,0)@40/pair:0,1>2,2 router@(1,0)@40/shift+5 router@(1,0)@40/reverse
router@(1,0)@160/pair:0,1>2,2 router@(1,0)@300/reverse
router@(2,0)@40/pair:0,1>2,2 router@(2,0)@40/shift+5 router@(2,0)@40/reverse
router@(2,0)@160/pair:0,1>2,2 router@(2,0)@300/pair:0,1>2,2 router@(2,0)@300/shift+5
router@(2,0)@300/reverse
router@(3,0)@40/pair:0,1>2,2 router@(3,0)@40/shift+5 router@(3,0)@40/reverse
router@(3,0)@160/pair:0,1>2,2 router@(3,0)@300/pair:0,1>2,2 router@(3,0)@300/shift+5
router@(3,0)@300/reverse router@(3,0)@500/pair:0,1>2,2
router@(0,1)@300/shift+5 router@(0,1)@300/reverse
router@(1,1)@40/pair:0,1>2,2 router@(1,1)@160/pair:0,1>2,2 router@(1,1)@300/pair:0,1>2,2
router@(1,1)@500/pair:0,1>2,2
router@(3,1)@40/pair:0,1>2,2 router@(3,1)@40/reverse router@(3,1)@160/pair:0,1>2,2
router@(3,1)@300/pair:0,1>2,2 router@(3,1)@500/pair:0,1>2,2
router@(0,2)@40/pair:0,1>2,2 router@(0,2)@160/pair:0,1>2,2 router@(0,2)@300/pair:0,1>2,2
router@(0,2)@500/pair:0,1>2,2
router@(1,2)@40/pair:0,1>2,2 router@(1,2)@160/pair:0,1>2,2 router@(1,2)@300/pair:0,1>2,2
router@(1,2)@500/pair:0,1>2,2
router@(3,2)@40/pair:0,1>2,2 router@(3,2)@160/pair:0,1>2,2 router@(3,2)@300/pair:0,1>2,2
router@(3,2)@500/pair:0,1>2,2
xb@dim0@(0,0)@40/pair:0,1>2,2 xb@dim0@(0,0)@40/shift+5 xb@dim0@(0,0)@40/reverse
xb@dim0@(0,0)@160/pair:0,1>2,2 xb@dim0@(0,0)@300/shift+5 xb@dim0@(0,0)@300/reverse
xb@dim0@(0,1)@160/pair:0,1>2,2 xb@dim0@(0,1)@300/pair:0,1>2,2 xb@dim0@(0,1)@500/pair:0,1>2,2
xb@dim0@(0,2)@40/pair:0,1>2,2 xb@dim0@(0,2)@40/reverse xb@dim0@(0,2)@160/pair:0,1>2,2
xb@dim0@(0,2)@300/pair:0,1>2,2 xb@dim0@(0,2)@300/reverse xb@dim0@(0,2)@500/pair:0,1>2,2
xb@dim1@(1,0)@40/pair:0,1>2,2 xb@dim1@(1,0)@160/pair:0,1>2,2
xb@dim1@(3,0)@40/pair:0,1>2,2 xb@dim1@(3,0)@160/pair:0,1>2,2 xb@dim1@(3,0)@300/pair:0,1>2,2
xb@dim1@(3,0)@500/pair:0,1>2,2
`)

// TestCICampaignWithoutRecovery runs ciCampaign with recovery off and mode
// fault, so a transition deadlock stays a deadlock, and pins the cells that
// deadlock: exactly deadlocksUnderVariantRebuild, in campaign order. A
// fallback onto the attempt's own candidate may remove cells from the list,
// never add one.
func TestCICampaignWithoutRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign replay skipped in -short")
	}
	text := ciCampaign()
	text.Recovery, text.Reconfig.Mode = recovery.Options{}, core.ReconfigOnFault
	cfg, err := text.Config()
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range res.Cells {
		if c.Deadlocked {
			got = append(got, fmt.Sprintf("%s@%d/%s", c.Fault, c.Epoch, c.Pattern))
		}
	}
	if !slices.Equal(got, deadlocksUnderVariantRebuild) {
		t.Errorf("%d cells deadlock:\n%s\nwant the %d of deadlocksUnderVariantRebuild",
			len(got), strings.Join(got, "\n"), len(deadlocksUnderVariantRebuild))
	}
}

// TestOwnLinesGenerationAddsNothing pins the premise under which attempt
// leaves a retiring generation out of the union: pinned to the candidate's
// own effective lines against the same fault set, a generation's edges are
// all edges the candidate's graph already holds — merging them changes
// neither the certificate nor, having introduced no vertex, any later
// witness.
func TestOwnLinesGenerationAddsNothing(t *testing.T) {
	for _, shape := range []geom.Shape{geom.MustShape(4, 4), geom.MustShape(6, 6), geom.MustShape(3, 3, 3)} {
		var all []fault.Fault
		shape.Enumerate(func(c geom.Coord) bool {
			all = append(all, fault.RouterFault(c))
			return true
		})
		for _, l := range shape.Lines() {
			all = append(all, fault.XBFault(l))
		}
		last := shape.CoordOf(shape.Size() - 1)
		for i, f := range all {
			set := fault.NewSet(shape)
			for _, f := range []fault.Fault{f, all[(i*7+3)%len(all)]}[:1+i%2] {
				if err := set.Add(f); err != nil {
					t.Fatal(err)
				}
			}
			cfg := routing.Config{Shape: shape, Faults: set}
			if i%3 == 2 {
				cfg.DXB = last
			}
			candidate, err := routing.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pinned, err := routing.NewPinned(cfg, candidate.EffectiveSXB().Fixed, candidate.EffectiveDXB().Fixed)
			if err != nil {
				t.Fatal(err)
			}
			g := cdg.NewGraph(candidate, shape)
			before := g.Certificate("union").String()
			g.AddLiveEdges(cdg.UnicastEdges(pinned, shape), set)
			g.AddLiveEdges(cdg.BroadcastEdges(pinned, shape), set)
			if after := g.Certificate("union").String(); after != before {
				t.Fatalf("%v faults %v: merging the candidate's own routes changed the certificate:\n%s\nwas\n%s", shape, set.List(), after, before)
			}
		}
	}
}
