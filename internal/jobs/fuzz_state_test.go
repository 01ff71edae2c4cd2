package jobs

// FuzzStateRescan extends the corrupt-equals-absent rule to every file the
// multi-worker state layer reads: truncated or bit-flipped spec, artifact,
// checksum, lease, claim, poison and park files must never panic the store,
// and a rescan over them must land in a consistent state — every surviving
// execution's hash matches its spec, every served artifact passes its
// checksum, lease reads stay in range, the snapshot files earlier builds
// parked are swept, and a second rescan is a fixed point. The seed corpus
// under testdata/fuzz/FuzzStateRescan commits the torn shapes a SIGKILLed
// fleet actually leaves.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func FuzzStateRescan(f *testing.F) {
	valid := []byte(`{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"shift+5"}}`)
	goodLease := []byte(`{"owner":"wa","epoch":1,"renewed_unix_ns":1}`)
	goodClaim := []byte(`{"owner":"wa","deaths":0}`)
	goodPoison := []byte(`{"deaths":3,"error":"3 owner(s) died mid-run"}`)
	f.Add(valid, []byte("artifact"), artifactSum([]byte("artifact")), goodLease, goodClaim, []byte{})
	f.Add(valid, []byte("artifact"), []byte("0000000000000000"), goodLease[:11], goodClaim[:5], goodPoison)
	f.Add(valid, []byte{}, []byte{}, []byte("{"), []byte("null"), []byte(`{"deaths":-1}`))
	f.Add([]byte("not json"), []byte("x"), []byte("y"), bytes.Repeat([]byte{0xff}, 40), []byte{0}, []byte("{}"))
	f.Add(valid, []byte{}, []byte{}, []byte(`{"owner":"wa","epoch":99,"renewed_unix_ns":9223372036854775807,"released":true}`), goodClaim, []byte{})

	f.Fuzz(func(t *testing.T, spec, artifact, sum, lease, claim, poison []byte) {
		dir := t.TempDir()
		st, err := openStateStore(dir, "wz")
		if err != nil {
			t.Fatal(err)
		}
		h := canonHash(string(spec))
		leaseDir := filepath.Join(st.execDir(h), "lease")
		if err := os.MkdirAll(leaseDir, 0o755); err != nil {
			t.Fatal(err)
		}
		// Raw writes, not campaign.WriteAtomic: the point is simulating torn files.
		os.WriteFile(filepath.Join(st.execDir(h), "spec.json"), spec, 0o644)
		if len(artifact) > 0 {
			os.WriteFile(filepath.Join(st.execDir(h), "artifact"), artifact, 0o644)
			os.WriteFile(filepath.Join(st.execDir(h), "artifact.sum"), sum, 0o644)
		}
		os.WriteFile(filepath.Join(leaseDir, "claim-000001"), claim, 0o644)
		os.WriteFile(filepath.Join(leaseDir, "lease.json"), lease, 0o644)
		if len(poison) > 0 {
			os.WriteFile(filepath.Join(st.execDir(h), "poisoned.json"), poison, 0o644)
		}
		// A park record as torn as the lease, and the mid-run snapshots a
		// build that parked runs as snapshots left behind.
		os.WriteFile(st.parkPath(h), lease, 0o644)
		retired := []string{filepath.Join(st.execDir(h), "single.snap"), filepath.Join(st.cellsDir(h), "cell-0000.snap")}
		os.MkdirAll(st.cellsDir(h), 0o755)
		for _, p := range retired {
			os.WriteFile(p, artifact, 0o644)
		}
		// Crash litter rescan must tolerate: an abandoned temp file, an exec
		// dir that is not a hash, and a stray non-directory entry.
		os.WriteFile(filepath.Join(st.execDir(h), "spec.json.tmp-123"), spec, 0o644)
		os.MkdirAll(filepath.Join(dir, "execs", "not-a-hash"), 0o755)
		os.WriteFile(filepath.Join(dir, "execs", "stray"), []byte("x"), 0o644)

		check := func(ttl time.Duration) {
			execs, _, err := st.rescan(ttl)
			if err != nil {
				t.Fatalf("rescan: %v", err)
			}
			for _, re := range execs {
				if canonHash(re.canonical) != re.hash {
					t.Fatalf("rescan surfaced exec whose hash does not match its spec")
				}
				if re.artifact != nil {
					art, ok := st.loadArtifact(re.hash)
					if !ok || !bytes.Equal(art, re.artifact) {
						t.Fatalf("rescan artifact disagrees with checksummed load")
					}
				}
				if re.poisoned != nil && (re.poisoned.Deaths < 0 || re.poisoned.Error == "") {
					t.Fatalf("rescan surfaced an invalid poison verdict: %+v", re.poisoned)
				}
			}
			st.loadPark(h)
			info, err := st.leaseInfo(h)
			if err != nil {
				t.Fatalf("leaseInfo: %v", err)
			}
			if info.epoch < 0 || info.deaths < 0 || (info.epoch > 0 && int64(info.deaths) > info.epoch-1) {
				t.Fatalf("lease read out of range: %+v", info)
			}
			res, err := st.acquire(h, "wz", ttl, 3)
			if err != nil {
				t.Fatalf("acquire: %v", err)
			}
			switch res.kind {
			case acqOwned:
				if err := st.renewLease(h, "wz", res.epoch); err != nil {
					t.Fatalf("renew after acquire: %v", err)
				}
				if err := st.releaseLease(h, "wz", res.epoch); err != nil {
					t.Fatalf("release after acquire: %v", err)
				}
			case acqAdopt, acqHeld, acqPoisoned:
			default:
				t.Fatalf("acquire returned unknown kind %d", res.kind)
			}
		}
		check(time.Hour) // fresh-lease reading: corrupt state is guarded, never deleted
		info, err := st.leaseInfo(h)
		if err != nil {
			t.Fatal(err)
		}
		unguarded := info.epoch == 0 || info.released || time.Since(info.renewed) >= 0
		check(0) // expired reading: cleanup and steal paths run
		for _, p := range retired {
			if _, err := os.Stat(p); err == nil && unguarded {
				t.Fatalf("rescan over an unguarded exec left %s", filepath.Base(p))
			}
		}

		// Idempotence: rescanning the consistent state is a fixed point.
		a, _, err := st.rescan(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := st.rescan(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("rescan not idempotent: %d then %d execs", len(a), len(b))
		}
		for i := range a {
			if a[i].hash != b[i].hash || a[i].canonical != b[i].canonical {
				t.Fatalf("rescan not idempotent at %d", i)
			}
		}
	})
}
