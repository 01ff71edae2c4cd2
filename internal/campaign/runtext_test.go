package campaign

import (
	"errors"
	"testing"

	"sr2201/internal/recovery"
)

// TestRunTextSpellingRejections pins the resolver's own rules — the
// spellings that would silently do nothing, or that only one mode takes —
// each refused under the field it was spelled in, in single and in campaign
// mode alike. (Which machine knobs combine is core.Config.Validate's table,
// driven through the resolver by internal/jobs TestKnobRejections.)
func TestRunTextSpellingRejections(t *testing.T) {
	base := func() RunText {
		return RunText{Shape: "4x4", Fails: []string{"rtc:1,1@40"}, Patterns: []string{"shift+5"},
			Epochs: []int64{12}, Waves: 4, Gap: 24}
	}
	if _, err := base().Spec(); err != nil {
		t.Fatalf("base single run rejected: %v", err)
	}
	for _, tc := range []struct {
		name      string
		edit      func(*RunText)
		wantField string
		only      string // "" = both modes, else "single" or "campaign"
	}{
		{name: "zero gap", edit: func(r *RunText) { r.Gap = 0 }, wantField: "gap"},
		{name: "zero waves", edit: func(r *RunText) { r.Waves = 0 }, wantField: "waves"},
		{name: "bad shape", edit: func(r *RunText) { r.Shape = "4xx4" }, wantField: "shape"},
		{name: "bad preset", edit: func(r *RunText) { r.Presets = []string{"rtc:1,1", "rtc:9,9"} }, wantField: "presets[1]"},
		{name: "link preset on mdx", edit: func(r *RunText) { r.Presets = []string{"link:0,0-3,0"} }, wantField: "presets[0]"},
		{name: "broadcast without cycle", edit: func(r *RunText) { r.Broadcasts = []string{"3,2"} }, wantField: "broadcasts[0]"},
		{name: "broadcast on hyperx", edit: func(r *RunText) { r.Topology = "hyperx"; r.Broadcasts = []string{"3,2@0"} }, wantField: "broadcasts"},
		{name: "dxb without separate", edit: func(r *RunText) { r.Variant.DXB = "0,3" }, wantField: "variant.dxb"},
		{name: "sxb outside shape", edit: func(r *RunText) { r.Variant.SXB = "0,7" }, wantField: "variant.sxb"},
		{name: "recovery tuning without enable", edit: func(r *RunText) { r.Recovery = recovery.Options{MaxRecoveries: 3} }, wantField: "recovery"},
		{name: "drain budget without mode", edit: func(r *RunText) { r.Reconfig.DrainBudget = 8 }, wantField: "reconfig.drain_budget"},
		{name: "negative drain budget", edit: func(r *RunText) { r.Reconfig = ReconfigText{Mode: "both", DrainBudget: -1} }, wantField: "reconfig.drain_budget"},
		{name: "bad fail", edit: func(r *RunText) { r.Fails = []string{"rtc:9,9@40"} }, wantField: "fails[0]", only: "single"},
		{name: "bad pattern", edit: func(r *RunText) { r.Patterns = []string{"spiral"} }, wantField: "pattern", only: "single"},
		{name: "two patterns", edit: func(r *RunText) { r.Patterns = []string{"reverse", "shift+5"} }, wantField: "pattern", only: "single"},
		{name: "bad second pattern", edit: func(r *RunText) { r.Patterns = []string{"reverse", "spiral"} }, wantField: "patterns[1]", only: "campaign"},
		{name: "fail schedule", edit: func(r *RunText) { r.Fails = []string{"rtc:1,1@40"} }, wantField: "fails", only: "campaign"},
		{name: "no epochs", edit: func(r *RunText) { r.Epochs = nil }, wantField: "epochs", only: "campaign"},
		{name: "negative epoch", edit: func(r *RunText) { r.Epochs = []int64{12, -1} }, wantField: "epochs[1]", only: "campaign"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(mode string, err error) {
				var fe *FieldError
				if !errors.As(err, &fe) || fe.Field != tc.wantField {
					t.Errorf("%s: rejection %v, want a FieldError naming %q", mode, err, tc.wantField)
				}
			}
			if tc.only != "campaign" {
				single := base()
				tc.edit(&single)
				_, err := single.Spec()
				check("single", err)
			}
			if tc.only != "single" {
				grid := base()
				grid.Fails = nil
				tc.edit(&grid)
				_, err := grid.Config()
				check("campaign", err)
			}
		})
	}
}

// TestRecoveryOptions table-tests the recovery triple's rules, in
// particular the spellings that would otherwise silently do nothing.
func TestRecoveryOptions(t *testing.T) {
	tests := []struct {
		name    string
		enable  bool
		stall   int64
		cap_    int
		wantErr bool
	}{
		{name: "disabled zero value"},
		{name: "enabled defaults", enable: true},
		{name: "enabled tuned", enable: true, stall: 256, cap_: 5},
		{name: "stall without enable", stall: 256, wantErr: true},
		{name: "cap without enable", cap_: 5, wantErr: true},
		{name: "negative stall", enable: true, stall: -1, wantErr: true},
		{name: "negative cap", enable: true, cap_: -1, wantErr: true},
		{name: "negative stall while disabled", stall: -1, wantErr: true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			o := recovery.Options{Enabled: tc.enable, StallThreshold: tc.stall, MaxRecoveries: tc.cap_}
			if err := checkRecovery(o); (err != nil) != tc.wantErr {
				t.Fatalf("checkRecovery(%+v) = %v, want error %v", o, err, tc.wantErr)
			}
		})
	}
}

// TestReconfigOptions pins the -reconfig/-reconfig-drain flag-pair contract:
// the empty mode disables reconfiguration, the three trigger spellings are
// canonicalized, and a drain budget without the enable flag is refused
// rather than silently ignored.
func TestReconfigOptions(t *testing.T) {
	tests := []struct {
		name     string
		mode     string
		drain    int
		wantMode string
		wantErr  bool
	}{
		{name: "disabled zero value", mode: "", wantMode: ""},
		{name: "fault", mode: "fault", wantMode: "fault"},
		{name: "deadlock", mode: "deadlock", wantMode: "deadlock"},
		{name: "both", mode: "both", wantMode: "both"},
		{name: "case and whitespace forgiven", mode: " Fault ", wantMode: "fault"},
		{name: "tuned budget", mode: "both", drain: 8, wantMode: "both"},
		{name: "unknown mode", mode: "always", wantErr: true},
		{name: "negative budget", mode: "fault", drain: -1, wantErr: true},
		{name: "budget without mode", mode: "", drain: 8, wantErr: true},
		{name: "negative budget while disabled", mode: "", drain: -1, wantErr: true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			mode, drain, err := reconfigOptions(tc.mode, tc.drain)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("reconfigOptions = (%q, %d), want error", mode, drain)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if mode != tc.wantMode || drain != tc.drain {
				t.Fatalf("reconfigOptions = (%q, %d), want (%q, %d)", mode, drain, tc.wantMode, tc.drain)
			}
		})
	}
}
