package experiments

// Every campaign run an experiment makes is a campaign.RunText: one table
// row is its reproduction recipe, the same text mdxfault and mdxreplay
// accept. These tests hold the experiments to that — the texts resolve and
// survive JSON, a recording of a row reproduces its cell, and each row is
// one unit of job progress.

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"sr2201/internal/campaign"
	"sr2201/internal/core"
	"sr2201/internal/replay"
)

// cellRows are the single-cell experiments' rows, built as the runners
// build them.
var cellRows = map[string]func(Options) []row{
	"E4": e4Rows,
	"F1": func(opt Options) []row { return []row{{nil, f1(opt.Quick, true)}} },
	"F3": func(opt Options) []row {
		return []row{{[]any{"false"}, f1(opt.Quick, false)}, {[]any{"true"}, f1(opt.Quick, true)}}
	},
	"H3":  h3Rows,
	"R1":  r1Rows,
	"V2":  v2Rows,
	"DR1": func(Options) []row { return dr1Rows() },
}

// campaignTexts are the placement campaigns and probes of the map
// experiments, built as the runners build them.
func campaignTexts(opt Options) map[string][]campaign.RunText {
	topology := func(t campaign.RunText, name string) campaign.RunText {
		t.Topology = name
		return t
	}
	lanes := func(lm laneMap) []campaign.RunText {
		control, subject, _ := lm.texts(opt)
		return []campaign.RunText{control, subject}
	}
	dr2 := r2(opt)
	dr2.Reconfig.Mode = core.ReconfigBoth
	return map[string][]campaign.RunText{
		"F2":  {faultMap(opt, "8x8", "4x4", 9, 5)},
		"H1":  {topology(faultMap(opt, "6x6", "3x3", 7, 5), "hyperx")},
		"H2":  {topology(faultMap(opt, "12", "6", 5, 3), "fullmesh")},
		"V3":  lanes(v3Map),
		"V4":  lanes(v4Map),
		"R2":  {r2(opt), unified(r2(opt))},
		"DR2": {r2(opt), dr2},
	}
}

// roundTrip reports whether t survives a JSON encode and decode unchanged.
func roundTrip(t *testing.T, text campaign.RunText) bool {
	t.Helper()
	data, err := json.Marshal(text)
	if err != nil {
		t.Fatal(err)
	}
	var back campaign.RunText
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	return reflect.DeepEqual(back, text)
}

// TestRunTextsResolve holds every converted experiment's runs, at both
// scales, to valid reproduction recipes: each survives a JSON round trip
// and resolves — a row as a single run, a map as a campaign.
func TestRunTextsResolve(t *testing.T) {
	for _, opt := range []Options{{Quick: true}, {}} {
		for id, rows := range cellRows {
			for i, r := range rows(opt) {
				if !roundTrip(t, r.run) {
					t.Errorf("%s quick=%v row %d: JSON round trip changed %+v", id, opt.Quick, i, r.run)
				}
				if _, err := r.run.Spec(); err != nil {
					t.Errorf("%s quick=%v row %d: %v", id, opt.Quick, i, err)
				}
			}
		}
		for _, lm := range []laneMap{v3Map, v4Map} {
			if _, _, probe := lm.texts(opt); !roundTrip(t, probe) {
				t.Errorf("%s probe: JSON round trip changed %+v", lm.title, probe)
			} else if _, err := probe.Spec(); err != nil {
				t.Errorf("%s probe: %v", lm.title, err)
			}
		}
		for id, texts := range campaignTexts(opt) {
			for i, text := range texts {
				if !roundTrip(t, text) {
					t.Errorf("%s quick=%v campaign %d: JSON round trip changed %+v", id, opt.Quick, i, text)
				}
				if _, err := text.Config(); err != nil {
					t.Errorf("%s quick=%v campaign %d: %v", id, opt.Quick, i, err)
				}
			}
		}
	}
}

// TestRowRecordsAsItRan records E4's offset-0 row and DR1's hot-swap row
// with the replay tooling: each recording ends at the cycle, and with the
// verdict, of the cell the experiment ran.
func TestRowRecordsAsItRan(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  campaign.RunText
	}{
		{"E4 offset 0", e4Rows(Options{Quick: true})[0].run},
		{"DR1 hot swap", dr1Rows()[1].run},
	} {
		spec, err := tc.run.Spec()
		if err != nil {
			t.Fatal(err)
		}
		cell, err := campaign.RunCell(spec)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := replay.Record(tc.run, 64, 2, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		m := rec.Meta
		if m.Final.Cycle != cell.EndCycle || m.Drained != cell.Drained ||
			m.Stalled != cell.Stalled || m.Deadlocked != cell.Deadlocked {
			t.Errorf("%s: recording ends at %d (drained=%v stalled=%v deadlocked=%v), the row's cell at %d (%v %v %v)",
				tc.name, m.Final.Cycle, m.Drained, m.Stalled, m.Deadlocked,
				cell.EndCycle, cell.Drained, cell.Stalled, cell.Deadlocked)
		}
	}
}

// TestRowsReportProgress holds the single-cell experiments to the jobs
// layer's progress contract: one OnCell call per row, whose cycles sum to
// the rows' end cycles.
func TestRowsReportProgress(t *testing.T) {
	opt := Options{Quick: true, Parallel: 2}
	for id, rows := range cellRows {
		var want int64
		for _, r := range rows(opt) {
			spec, err := r.run.Spec()
			if err != nil {
				t.Fatal(err)
			}
			cell, err := campaign.RunCell(spec)
			if err != nil {
				t.Fatal(err)
			}
			want += cell.EndCycle
		}
		var mu sync.Mutex
		var calls int
		var cycles int64
		o := opt
		o.OnCell = func(c int64) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			cycles += c
		}
		e, _ := ByID(id)
		if _, err := e.Run(o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if n := len(rows(opt)); calls != n || cycles != want {
			t.Errorf("%s: %d OnCell calls for %d cycles, want %d rows for %d cycles", id, calls, cycles, n, want)
		}
	}
}
