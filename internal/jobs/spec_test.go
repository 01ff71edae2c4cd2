package jobs

import (
	"errors"
	"strings"
	"testing"

	"sr2201/internal/geom"
)

func TestDecodeSpecNormalizesAndCanonicalizes(t *testing.T) {
	// Two cosmetically different submissions of the same work must share a
	// canonical encoding (they dedupe to one execution).
	a, err := DecodeSpec([]byte(`{"kind":"experiments","experiments":{"ids":["e1"," f1 "]}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeSpec([]byte(`{"kind":"experiments","experiments":{"ids":["E1","F1"],"quick":false}}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Canonical() != b.Canonical() {
		t.Errorf("canonical mismatch:\n%s\n%s", a.Canonical(), b.Canonical())
	}
	if got := a.Experiments.IDs; got[0] != "E1" || got[1] != "F1" {
		t.Errorf("ids not canonicalized: %v", got)
	}
}

func TestDecodeSpecAppliesCLIDefaults(t *testing.T) {
	s, err := DecodeSpec([]byte(`{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"shift+5","inject":{"retransmit":true}}}`))
	if err != nil {
		t.Fatal(err)
	}
	f := s.Fault
	if f.Waves != 4 || f.Gap != 24 || f.Horizon != 50_000 {
		t.Errorf("wave defaults not applied: %+v", f)
	}
	if f.Inject.RetryAfter != 64 || f.Inject.Backoff != 2 || f.Inject.MaxRetries != 4 {
		t.Errorf("inject defaults not applied: %+v", f.Inject)
	}
	// An explicit spelling of the defaults canonicalizes identically.
	s2, err := DecodeSpec([]byte(`{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"shift+5","waves":4,"gap":24,"horizon":50000,"inject":{"retransmit":true,"retry_after":64,"backoff":2,"max_retries":4}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Canonical() != s2.Canonical() {
		t.Errorf("defaulted and explicit specs diverge:\n%s\n%s", s.Canonical(), s2.Canonical())
	}
}

func TestDecodeSpecRejectionsNameTheField(t *testing.T) {
	cases := []struct {
		name, body, wantField string
	}{
		{"missing kind", `{}`, "kind"},
		{"unknown kind", `{"kind":"bogus"}`, "kind"},
		{"kind without payload", `{"kind":"fault"}`, "fault"},
		{"mismatched payload", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"reverse"},"campaign":{"shape":"4x4","epochs":[1],"patterns":["reverse"]}}`, "campaign"},
		{"unknown field", `{"kind":"experiments","experiments":{"ids":["E1"],"wat":1}}`, "wat"},
		{"type mismatch", `{"kind":"experiments","experiments":{"ids":"E1"}}`, "experiments.ids"},
		{"empty ids", `{"kind":"experiments","experiments":{"ids":[]}}`, "experiments.ids"},
		{"unknown experiment", `{"kind":"experiments","experiments":{"ids":["E1","Z9"]}}`, "experiments.ids[1]"},
		{"bad shape", `{"kind":"fault","fault":{"shape":"4xx4","fails":["rtc:1,1@40"],"pattern":"reverse"}}`, "fault.shape"},
		{"huge shape", `{"kind":"fault","fault":{"shape":"4096x4096","fails":["rtc:1,1@40"],"pattern":"reverse"}}`, "fault.shape"},
		{"bad fail spec", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:9,9@40"],"pattern":"reverse"}}`, "fault.fails[0]"},
		{"bad pattern", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"spiral"}}`, "fault.pattern"},
		{"negative waves", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"reverse","waves":-1}}`, "fault.waves"},
		{"negative epoch", `{"kind":"campaign","campaign":{"shape":"4x4","epochs":[-3],"patterns":["reverse"]}}`, "campaign.epochs[0]"},
		{"empty patterns", `{"kind":"campaign","campaign":{"shape":"4x4","epochs":[1],"patterns":[]}}`, "campaign.patterns"},
		{"bad inject", `{"kind":"campaign","campaign":{"shape":"4x4","epochs":[1],"patterns":["reverse"],"inject":{"backoff":-2}}}`, "campaign.inject.backoff"},
		{"recovery tuning without enable", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"reverse","recovery":{"stall_threshold":256}}}`, "fault.recovery"},
		{"recovery cap over ceiling", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"reverse","recovery":{"enabled":true,"max_recoveries":65}}}`, "fault.recovery.max_recoveries"},
		{"bad preset", `{"kind":"fault","fault":{"shape":"4x4","presets":["rtc:9,9"],"pattern":"reverse"}}`, "fault.presets[0]"},
		{"bad broadcast", `{"kind":"fault","fault":{"shape":"4x4","broadcasts":["3,2"],"pattern":"reverse"}}`, "fault.broadcasts[0]"},
		{"dxb without separate", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"reverse","variant":{"dxb":"0,3"}}}`, "fault.variant.dxb"},
		{"sxb outside shape", `{"kind":"campaign","campaign":{"shape":"4x4","epochs":[1],"patterns":["reverse"],"variant":{"sxb":"0,7"}}}`, "campaign.variant.sxb"},
		{"bad pair pattern", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"pair:0,1>0,1"}}`, "fault.pattern"},
		{"vcs over ceiling", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"reverse","variant":{"vcs":9,"adaptive":true}}}`, "fault.variant.vcs"},
		// The reconfiguration drain budget is retired: every spelling of it,
		// including ones the old validation accepted, is an unknown field.
		{"reconfig budget without mode", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"reverse","reconfig":{"drain_budget":8}}}`, "drain_budget"},
		{"negative reconfig budget", `{"kind":"campaign","campaign":{"shape":"4x4","epochs":[1],"patterns":["reverse"],"reconfig":{"mode":"both","drain_budget":-1}}}`, "drain_budget"},
		{"reconfig budget over ceiling", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"reverse","reconfig":{"mode":"fault","drain_budget":1048577}}}`, "drain_budget"},
		{"retired drain_budget field", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"reverse","reconfig":{"mode":"both","drain_budget":16}}}`, "drain_budget"},
		// The retired deadlock-only reconfiguration mode is refused as an
		// unknown mode, naming its field.
		{"retired deadlock reconfig mode", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"reverse","reconfig":{"mode":"deadlock"}}}`, "fault.reconfig.mode"},
		{"retired shards field (fault)", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"reverse","shards":4}}`, "shards"},
		{"retired shards field (campaign)", `{"kind":"campaign","campaign":{"shape":"4x4","epochs":[1],"patterns":["reverse"],"shards":4}}`, "shards"},
		{"trailing data", `{"kind":"experiments","experiments":{"ids":["E1"]}} {"x":1}`, "body"},
		{"not json", `hello`, "body"},
	}
	check := func(t *testing.T, body []byte, wantField string) {
		t.Helper()
		_, err := DecodeSpec(body)
		if err == nil {
			t.Fatal("accepted invalid spec")
		}
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Fatalf("rejection is not a FieldError: %v", err)
		}
		if fe.Field != wantField {
			t.Errorf("field = %q, want %q (%v)", fe.Field, wantField, err)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { check(t, []byte(tc.body), tc.wantField) })
	}
	// The machine-knob rows live in knobRejections, spelled here as fault
	// and campaign submissions.
	for _, tc := range knobRejections {
		if tc.noJob {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if cfg.Shape == nil {
				cfg.Shape = geom.MustShape(4, 4)
			}
			fault, campaign := knobJobs(t, cfg)
			check(t, fault, "fault."+tc.field)
			check(t, campaign, "campaign."+tc.field)
		})
	}
}

// TestDecodeSpecVCsCanonicalization pins the dedup rule for the degenerate
// lane count: an explicit "vcs": 1 names the same machine as an absent
// field, so the two specs must canonicalize identically (one cache entry,
// one job identity).
func TestDecodeSpecVCsCanonicalization(t *testing.T) {
	one, err := DecodeSpec([]byte(`{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"reverse","variant":{"vcs":1}}}`))
	if err != nil {
		t.Fatal(err)
	}
	absent, err := DecodeSpec([]byte(`{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"reverse"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if one.Canonical() != absent.Canonical() {
		t.Errorf("vcs:1 and absent vcs canonicalize differently:\n%s\n%s", one.Canonical(), absent.Canonical())
	}
}

func TestDecodeSpecAllKeyword(t *testing.T) {
	s, err := DecodeSpec([]byte(`{"kind":"experiments","experiments":{"ids":["ALL"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Experiments.IDs) != 1 || s.Experiments.IDs[0] != "all" {
		t.Errorf("all keyword not canonicalized: %v", s.Experiments.IDs)
	}
	if !strings.Contains(s.Canonical(), `"all"`) {
		t.Errorf("canonical missing all keyword: %s", s.Canonical())
	}
}
