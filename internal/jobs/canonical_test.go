package jobs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateCanonical = flag.Bool("update", false, "rewrite testdata/canonical.golden")

// canonicalBodies are submissions whose canonical encoding and hash are
// pinned: a spec hash is a job's identity and its address in a state
// directory, so a change here orphans every persisted execution.
var canonicalBodies = []struct{ name, body string }{
	// Every field of each payload set, decoded without normalization: the
	// wire name of every knob, in field order. A field added to a nested
	// block without a JSON tag shows up here under its Go name.
	{"raw fault, every field", `{"kind":"fault","fault":{"shape":"4x4","topology":"hyperx","fails":["rtc:1,1@40"],"presets":["rtc:2,1"],"broadcasts":["3,2@0"],"pattern":"pair:0,1>2,2","waves":3,"gap":5,"packet_size":24,"horizon":9000,"inject":{"retransmit":true,"retry_after":32,"backoff":3,"max_retries":5,"stall":256},"recovery":{"enabled":true,"stall_threshold":128,"max_recoveries":7},"variant":{"sxb":"0,1","dxb":"0,3","dxb_separate":true,"vcs":2,"adaptive":true},"reconfig":{"mode":"both","drain_budget":16}}}`},
	{"raw campaign, every field", `{"kind":"campaign","campaign":{"shape":"4x4","topology":"hyperx","epochs":[12,60],"patterns":["shift+5","reverse"],"presets":["rtc:2,1"],"broadcasts":["3,2@0"],"waves":3,"gap":5,"packet_size":24,"horizon":9000,"inject":{"retransmit":true,"retry_after":32,"backoff":3,"max_retries":5,"stall":256},"recovery":{"enabled":true,"stall_threshold":128,"max_recoveries":7},"variant":{"sxb":"0,1","dxb":"0,3","dxb_separate":true,"vcs":2,"adaptive":true},"reconfig":{"mode":"both","drain_budget":16}}}`},
	{"raw experiments, every field", `{"kind":"experiments","experiments":{"ids":["E1","F1"],"quick":true}}`},

	// As many fields as one accepted spec can carry, normalized.
	{"fault, separate D-XB with recovery and reconfig", `{"kind":"fault","fault":{"shape":" 4x4 ","topology":" MDX ","fails":[" rtc:1,1@40 "],"presets":["rtc:2,1"],"broadcasts":["3,2@0"],"pattern":" pair:0,1>2,2 ","waves":3,"gap":5,"packet_size":24,"horizon":9000,"inject":{"retransmit":true,"retry_after":32,"backoff":3,"max_retries":5,"stall":256},"recovery":{"enabled":true,"stall_threshold":128,"max_recoveries":7},"variant":{"sxb":" 0,1 ","dxb":"0,3","dxb_separate":true},"reconfig":{"mode":" Both ","drain_budget":16}}}`},
	{"fault, adaptive lanes", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"broadcasts":["3,2@9"],"pattern":"shift+3","inject":{"retransmit":true},"recovery":{"enabled":true},"variant":{"vcs":4,"adaptive":true}}}`},
	{"fault, hyperx link", `{"kind":"fault","fault":{"shape":"4x4","topology":"hyperx","fails":["link:0,0-3,0@60"],"pattern":"shift+5","inject":{"retransmit":true,"stall":300}}}`},
	{"campaign, separate D-XB with recovery and reconfig", `{"kind":"campaign","campaign":{"shape":"4x4","topology":"mdx","epochs":[12,60],"patterns":["shift+5"," reverse","pair:0,1>2,2"],"presets":["rtc:2,1"],"broadcasts":["3,2@0"],"waves":3,"gap":5,"packet_size":24,"horizon":9000,"inject":{"retransmit":true,"retry_after":32,"backoff":3,"max_retries":5,"stall":256},"recovery":{"enabled":true,"stall_threshold":128,"max_recoveries":7},"variant":{"sxb":"0,1","dxb":"0,3","dxb_separate":true},"reconfig":{"mode":"fault","drain_budget":16}}}`},
	{"campaign, adaptive lanes", `{"kind":"campaign","campaign":{"shape":"4x4","epochs":[12],"patterns":["shift+5"],"inject":{"retransmit":true},"recovery":{"enabled":true,"stall_threshold":256},"variant":{"vcs":2,"adaptive":true}}}`},
	{"campaign, fullmesh", `{"kind":"campaign","campaign":{"shape":"8","topology":"fullmesh","epochs":[12],"patterns":["shift+3"],"inject":{"retransmit":true}}}`},

	// The differential matrix's specs.
	{"differential single retransmit", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"shift+5","waves":2,"inject":{"retransmit":true}}}`},
	{"differential single undrained", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"shift+5","waves":2}}`},
	{"differential fig9 recovery", `{"kind":"fault","fault":{"shape":"4x4","presets":["rtc:2,1"],"broadcasts":["3,2@0"],"pattern":"pair:0,1>2,2","waves":1,"gap":1,"packet_size":24,"inject":{"retransmit":true,"retry_after":32,"stall":256},"recovery":{"enabled":true,"stall_threshold":256},"variant":{"sxb":"0,0","dxb":"0,3","dxb_separate":true}}}`},
	{"differential campaign", `{"kind":"campaign","campaign":{"shape":"4x4","epochs":[12,60],"patterns":["shift+5","reverse"],"inject":{"retransmit":true}}}`},

	// The bodies the decode tests accept.
	{"decode ids", `{"kind":"experiments","experiments":{"ids":["e1"," f1 "]}}`},
	{"decode ids explicit", `{"kind":"experiments","experiments":{"ids":["E1","F1"],"quick":false}}`},
	{"decode defaults", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"shift+5","inject":{"retransmit":true}}}`},
	{"decode defaults explicit", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"shift+5","waves":4,"gap":24,"horizon":50000,"inject":{"retransmit":true,"retry_after":64,"backoff":2,"max_retries":4}}}`},
	{"decode vcs 1", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"reverse","variant":{"vcs":1}}}`},
	{"decode vcs absent", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"reverse"}}`},
	{"decode all", `{"kind":"experiments","experiments":{"ids":["ALL"]}}`},
}

// fill sets every field reachable from v (a pointer to a struct) to a
// distinct non-zero value, so a marshaled fixture carries every wire name.
// Values count leaves only: grouping fields into an embedded struct keeps
// the bytes.
func fill(v reflect.Value, n *int) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Struct {
			fill(f, n)
			continue
		}
		*n++
		switch f.Kind() {
		case reflect.String:
			f.SetString(fmt.Sprintf("s%d", *n))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(*n))
		case reflect.Float64:
			f.SetFloat(float64(*n) + 0.5)
		}
	}
}

// TestCanonicalGolden pins the service's wire bytes: every canonical
// encoding and spec hash above, plus the JSON of a fully populated Event,
// JobView and Metrics.
func TestCanonicalGolden(t *testing.T) {
	var out bytes.Buffer
	entry := func(name, canonical string) {
		fmt.Fprintf(&out, "== %s\n%s\n%s\n", name, canonical, canonHash(canonical))
	}
	for _, c := range canonicalBodies {
		if strings.HasPrefix(c.name, "raw ") {
			dec := json.NewDecoder(strings.NewReader(c.body))
			dec.DisallowUnknownFields()
			var s Spec
			if err := dec.Decode(&s); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			entry(c.name, s.Canonical())
			continue
		}
		s, err := DecodeSpec([]byte(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h, err := CanonicalHash(s)
		if err != nil || h != canonHash(s.Canonical()) {
			t.Fatalf("%s: CanonicalHash %q, %v; want the hash of %s", c.name, h, err, s.Canonical())
		}
		entry(c.name, s.Canonical())
	}
	for i, body := range specSeeds {
		if s, err := DecodeSpec([]byte(body)); err == nil {
			entry(fmt.Sprintf("fuzz seed %d", i), s.Canonical())
		}
	}
	for _, v := range []any{&Event{}, &JobView{}, &Metrics{}} {
		n := 0
		fill(reflect.ValueOf(v).Elem(), &n)
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "== %T\n%s\n", v, b)
	}

	path := filepath.Join("testdata", "canonical.golden")
	if *updateCanonical {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("wire bytes changed (rewrite with -update only for an intended format change):\n--- got ---\n%s--- want ---\n%s", out.Bytes(), want)
	}
}
