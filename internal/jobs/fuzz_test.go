package jobs

import (
	"errors"
	"testing"
)

// specSeeds seeds FuzzJobSpecDecode; the ones DecodeSpec accepts are also
// pinned by TestCanonicalGolden.
var specSeeds = []string{
	`{"kind":"experiments","experiments":{"ids":["E1"]}}`,
	`{"kind":"experiments","experiments":{"ids":["all"],"quick":true}}`,
	`{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"shift+5"}}`,
	`{"kind":"fault","fault":{"shape":"8x8","fails":["xb:0:0,2@200","rtc:3,4@500"],"pattern":"reverse","waves":6,"inject":{"retransmit":true}}}`,
	`{"kind":"campaign","campaign":{"shape":"4x4","epochs":[12,60],"patterns":["shift+5","reverse"]}}`,
	`{"kind":"campaign","campaign":{"shape":"9999999x9999999","epochs":[1],"patterns":["reverse"]}}`,
	`{"kind":"bogus"}`,
	`{"kind":"fault"}`,
	`{"kind":"fault","fault":{"shape":"-1x-1","fails":[""],"pattern":""}}`,
	`{"kind":"experiments","experiments":{"ids":[]}}`,
	`[]`, `null`, `0`, `"x"`, `{}`, `{{`, ``,
	`{"kind":"experiments","experiments":{"ids":["E1"]},"fault":{}}`,
	`{"kind":"experiments","experiments":{"ids":["E1"],"extra":true}}`,
	`{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"shift+5","shards":4}}`,
	`{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"shift+5","reconfig":{"mode":"fault","drain_budget":16}}}`,
	`{"kind":"campaign","campaign":{"shape":"4x4","epochs":[40],"patterns":["reverse"],"reconfig":{"mode":"deadlock"}}}`,
}

// FuzzJobSpecDecode: arbitrary JSON must never panic the decoder or the
// validator, every rejection must be a *FieldError naming the offending
// field, and every accepted spec must be normalized — i.e. re-decoding its
// canonical encoding must succeed and be a fixed point.
func FuzzJobSpecDecode(f *testing.F) {
	for _, seed := range specSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("rejection is not a FieldError: %v", err)
			}
			if fe.Field == "" {
				t.Fatalf("rejection names no field: %v", err)
			}
			return
		}
		// Accepted: the canonical encoding must round-trip to itself.
		canon := spec.Canonical()
		again, err := DecodeSpec([]byte(canon))
		if err != nil {
			t.Fatalf("canonical encoding rejected on re-decode: %v\n%s", err, canon)
		}
		if again.Canonical() != canon {
			t.Fatalf("canonical encoding is not a fixed point:\n%s\n%s", canon, again.Canonical())
		}
	})
}
