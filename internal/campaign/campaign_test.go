package campaign

import (
	"io"
	"strings"
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
)

func TestPlacementsEnumeratesEverything(t *testing.T) {
	shape := geom.MustShape(4, 3)
	got := Placements(shape)
	want := shape.Size() + len(shape.Lines()) // 12 routers + 7 lines
	if len(got) != want {
		t.Fatalf("placements = %d, want %d", len(got), want)
	}
	routers, xbs := 0, 0
	for _, f := range got {
		if f.Kind == fault.KindRouter {
			routers++
		} else {
			xbs++
		}
	}
	if routers != shape.Size() || xbs != len(shape.Lines()) {
		t.Fatalf("placements split %d routers / %d crossbars", routers, xbs)
	}
}

func TestRunCellVerdict(t *testing.T) {
	res, err := RunCell(Spec{
		Shape:   geom.MustShape(4, 4),
		Events:  []inject.Event{{Cycle: 12, Fault: fault.RouterFault(geom.Coord{2, 1})}},
		Pattern: Shift(5),
		Waves:   4,
		Gap:     24,
		Inject:  inject.Options{Retransmit: true, RetryAfter: 32, StallThreshold: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained || res.Deadlocked || res.Stalled {
		t.Fatalf("cell did not drain cleanly: %+v", res)
	}
	if res.Offered == 0 || res.Accepted == 0 {
		t.Fatalf("no traffic offered: %+v", res)
	}
	if res.RefusedOther != 0 {
		t.Fatalf("non-unreachable refusals: %+v", res)
	}
	if !res.UnreachableAsPredicted {
		t.Fatalf("refusals do not match static prediction: refused=%d predicted=%d/wave x %d waves",
			res.Refused, res.PredictedUnreachablePerWave, res.WavesAfterFault)
	}
	if res.WavesAfterFault != 3 {
		t.Fatalf("waves after cycle-12 fault = %d, want 3", res.WavesAfterFault)
	}
	st := res.Stats
	final := st.LostUnreachable + st.LostExhausted + st.LostUntraceable + st.DropsOther
	if res.Delivered+final != res.Accepted {
		t.Fatalf("exactly-once accounting: delivered=%d + final=%d != accepted=%d (%+v)",
			res.Delivered, final, res.Accepted, st)
	}
	if st.Duplicates != 0 {
		t.Fatalf("duplicates: %+v", st)
	}
	if av := res.Availability(); av <= 0 || av > 1 {
		t.Fatalf("availability = %v", av)
	}
}

func TestRunCellKeepsDeliveriesOnRequest(t *testing.T) {
	spec := Spec{
		Shape:   geom.MustShape(3, 3),
		Events:  []inject.Event{{Cycle: 8, Fault: fault.RouterFault(geom.Coord{1, 1})}},
		Pattern: Shift(2),
		Waves:   2,
		Gap:     16,
		Inject:  inject.Options{StallThreshold: 128},
	}
	lean, err := RunCell(spec)
	if err != nil {
		t.Fatal(err)
	}
	if lean.Deliveries != nil {
		t.Fatal("deliveries retained without KeepDeliveries")
	}
	spec.KeepDeliveries = true
	full, err := RunCell(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Deliveries) != full.Delivered {
		t.Fatalf("kept %d deliveries, counted %d", len(full.Deliveries), full.Delivered)
	}
}

func smallCampaign(parallel int) Config {
	return Config{
		Shape:    geom.MustShape(3, 3),
		Epochs:   []int64{10},
		Patterns: []Pattern{Shift(2)},
		Waves:    3,
		Gap:      20,
		Inject:   inject.Options{Retransmit: true, RetryAfter: 24, StallThreshold: 128},
		Parallel: parallel,
	}
}

func TestCampaignZeroDeadlocksAndByteIdentical(t *testing.T) {
	serial, err := Run(smallCampaign(1))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(serial.Cells), (9+6)*1*1; got != want {
		t.Fatalf("cells = %d, want %d", got, want)
	}
	if serial.Deadlocks() != 0 || serial.Stalls() != 0 || serial.undrained() != 0 {
		t.Fatalf("campaign not clean:\n%s", serial.String())
	}
	for _, c := range serial.Cells {
		if !c.UnreachableAsPredicted {
			t.Errorf("cell %v@%d/%s: refusals unpredicted (refused=%d predicted=%d x %d)",
				c.Fault, c.Epoch, c.Pattern, c.Refused, c.PredictedUnreachablePerWave, c.WavesAfterFault)
		}
		if c.Stats.Duplicates != 0 {
			t.Errorf("cell %v: duplicates %+v", c.Fault, c.Stats)
		}
	}
	want := serial.String()
	if !strings.Contains(want, "rtc") || !strings.Contains(want, "xb-dim1") {
		t.Fatalf("table missing fault classes:\n%s", want)
	}
	// Byte-identity across parallelism and across repeats — and, with a
	// broadcast schedule, across the order the caller listed it in: every
	// cell is handed the same Broadcasts slice from the worker goroutines, so
	// a cell must order a copy (the race detector watches this loop in CI).
	var ascending, descending []Broadcast
	for i := 0; i < 8; i++ {
		ascending = append(ascending, Broadcast{Cycle: int64(5 * i), Src: geom.Coord{i % 3, i / 3}})
		descending = append([]Broadcast{ascending[i]}, descending...)
	}
	presorted := smallCampaign(1)
	presorted.Broadcasts = ascending
	res, err := Run(presorted)
	if err != nil {
		t.Fatal(err)
	}
	wantBroadcasts := res.String()
	for _, p := range []int{1, 2, 4} {
		for _, tc := range []struct {
			name       string
			broadcasts []Broadcast
			want       string
		}{
			{"no broadcasts", nil, want},
			{"broadcasts out of cycle order", descending, wantBroadcasts},
		} {
			cfg := smallCampaign(p)
			cfg.Broadcasts = tc.broadcasts
			again, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := again.String(); got != tc.want {
				t.Errorf("parallel=%d, %s: output differs:\n--- want ---\n%s\n--- got ---\n%s", p, tc.name, tc.want, got)
			}
		}
	}
	if descending[0].Cycle != 35 {
		t.Errorf("Run reordered the caller's broadcast slice: %v", descending)
	}
}

func TestCampaignValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(Config{Shape: geom.MustShape(3, 3)}); err == nil {
		t.Error("config without epochs accepted")
	}
	if _, err := Run(Config{Shape: geom.MustShape(3, 3), Epochs: []int64{1}}); err == nil {
		t.Error("config without patterns accepted")
	}
	if _, err := RunCell(Spec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := RunSingle(Spec{Shape: geom.MustShape(3, 3)}, io.Discard); err == nil {
		t.Error("single run without a pattern accepted")
	}
	// A switch dies once: naming it twice, among the presets or in the
	// schedule, fails the run with the fault set's refusal.
	dead := fault.RouterFault(geom.Coord{2, 1})
	for _, tc := range []struct {
		name   string
		preset []fault.Fault
		events []inject.Event
		want   string
	}{
		{"preset twice", []fault.Fault{dead, dead}, nil, "campaign: preset fault: fault: router (2,1) is already faulty"},
		{"scheduled twice", nil, []inject.Event{{Cycle: 3, Fault: dead}, {Cycle: 9, Fault: dead}}, "inject: bad event: fault: router (2,1) is already faulty"},
		{"preset and scheduled", []fault.Fault{dead}, []inject.Event{{Cycle: 3, Fault: dead}}, "inject: bad event: fault: router (2,1) is already faulty"},
	} {
		spec := fig9Single(false, 0)
		spec.Preset, spec.Events = tc.preset, tc.events
		if _, err := RunSingle(spec, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
}
