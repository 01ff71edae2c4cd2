package jobs

// Crash-recovery tests: a manager killed mid-run (Stop is the SIGTERM path)
// must, on reopen over the same state directory, finish every interrupted
// job with an artifact byte-identical to an uninterrupted run's.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sr2201/internal/campaign"
	"sr2201/internal/inject"
	"sr2201/internal/sweep"
)

// resumeCampaignSpec is a campaign with enough cells (placements × epochs ×
// patterns) that interrupting it mid-run is reliable.
func resumeCampaignSpec() Spec {
	return Spec{Kind: KindCampaign, Campaign: &CampaignSpec{
		Shape:    "4x4",
		Epochs:   []int64{12, 60, 200},
		Patterns: []string{"shift+5", "reverse"},
		Waves:    4,
		Gap:      24,
		Inject:   inject.Options{Retransmit: true},
	}}
}

// normalizedHash computes the state-store key the manager will use for spec.
func normalizedHash(t *testing.T, spec Spec) string {
	t.Helper()
	s := spec.Clone()
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	return canonHash(s.Canonical())
}

// referenceArtifact runs spec on a stateless manager and returns its bytes.
func referenceArtifact(t *testing.T, spec Spec) []byte {
	t.Helper()
	m := NewManager(Config{Workers: 1, Parallel: 1})
	defer m.Stop()
	id, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, id, StatusDone)
	artifact, ok, err := m.Artifact(id)
	if err != nil || !ok {
		t.Fatalf("reference artifact: ok=%v err=%v", ok, err)
	}
	return artifact
}

// faultResumeSpec is a fault run long enough (~2k cycles) that the progress
// feed fires mid-run.
func faultResumeSpec(t *testing.T) Spec {
	t.Helper()
	spec := Spec{Kind: KindFault, Fault: &FaultSpec{
		Shape:   "4x4",
		Fails:   []string{"rtc:1,1@40"},
		Pattern: "shift+5",
		Waves:   80,
		Gap:     24,
		Inject:  inject.Options{Retransmit: true},
	}}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestRunSpecFaultStaleSnapshotRestarts parks snapshots this build cannot
// resume from — testdata/single_v3.snap, written at cycle 512 of this very
// spec by the last build with the format-version-3 single-run layout, and a
// torn write — and checks the run restarts from cycle 0 instead of failing:
// every cycle is reported again and the artifact equals the uninterrupted
// run's.
func TestRunSpecFaultStaleSnapshotRestarts(t *testing.T) {
	spec := faultResumeSpec(t)
	budget := sweep.NewLimiter(1)
	var wantCycles int64
	want, err := runSpec(context.Background(), spec, budget, 1, func(d Progress) { wantCycles += d.Cycles }, nil)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := os.ReadFile(filepath.Join("testdata", "single_v3.snap"))
	if err != nil {
		t.Fatal(err)
	}
	// The old layout is refused for what it is, not as a side effect.
	cell, err := spec.Fault.text().Spec()
	if err != nil {
		t.Fatal(err)
	}
	r, err := campaign.NewSingleRun(cell, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(v3); err == nil || !strings.Contains(err.Error(), `section "campaign.single"`) || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("v3 single snapshot: restore error %v, want a rejection naming campaign.single and version 3", err)
	}

	for name, snap := range map[string][]byte{"old layout": v3, "truncated": v3[:len(v3)/2]} {
		t.Run(name, func(t *testing.T) {
			store, err := openStateStore(t.TempDir(), "w0")
			if err != nil {
				t.Fatal(err)
			}
			st := &execState{store: store, hash: canonHash(spec.Canonical()), every: 256}
			if err := store.saveExecSpec(st.hash, spec.Canonical()); err != nil {
				t.Fatal(err)
			}
			if err := store.saveSingleSnap(st.hash, snap); err != nil {
				t.Fatal(err)
			}
			var cycles int64
			got, err := runSpec(context.Background(), spec, budget, 1, func(d Progress) { cycles += d.Cycles }, st)
			if err != nil {
				t.Fatalf("run over a stale snapshot: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("artifact differs from the uninterrupted run's\n--- got\n%s--- want\n%s", got, want)
			}
			if cycles != wantCycles {
				t.Errorf("reported %d cycles, want %d (a restart from cycle 0)", cycles, wantCycles)
			}
			if _, ok := store.loadSingleSnap(st.hash); ok {
				t.Error("stale snapshot not retired after completion")
			}
		})
	}
}

// TestRunSpecFaultResume interrupts a single-fault run deterministically (the
// progress callback cancels the context mid-run), then resumes it from the
// parked snapshot and checks the artifact equals the uninterrupted run's.
func TestRunSpecFaultResume(t *testing.T) {
	spec := faultResumeSpec(t)
	budget := sweep.NewLimiter(1)
	noop := func(Progress) {}
	want, err := runSpec(context.Background(), spec, budget, 1, noop, nil)
	if err != nil {
		t.Fatal(err)
	}

	store, err := openStateStore(t.TempDir(), "w0")
	if err != nil {
		t.Fatal(err)
	}
	st := &execState{store: store, hash: canonHash(spec.Canonical()), every: 256}
	// The manager creates the exec dir when it accepts the submission.
	if err := store.saveExecSpec(st.hash, spec.Canonical()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	interrupted := false
	_, err = runSpec(ctx, spec, budget, 1, func(d Progress) {
		if !interrupted && d.Cycles > 0 {
			interrupted = true
			cancel()
		}
	}, st)
	if err == nil {
		t.Fatal("interrupted run unexpectedly completed — grow the fixture")
	}
	if _, ok := store.loadSingleSnap(st.hash); !ok {
		t.Fatal("no snapshot parked on interrupt")
	}

	got, err := runSpec(context.Background(), spec, budget, 1, noop, st)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed artifact differs\n--- resumed\n%s--- uninterrupted\n%s", got, want)
	}
	if _, ok := store.loadSingleSnap(st.hash); ok {
		t.Error("snapshot not retired after completion")
	}
}

// TestManagerResumeCampaignByteIdentical is the end-to-end crash drill: a
// stateful manager is stopped mid-campaign, a second manager opens the same
// directory, and the job — same id — finishes with the exact bytes an
// uninterrupted server produces, at parallel 1 and 4.
func TestManagerResumeCampaignByteIdentical(t *testing.T) {
	spec := resumeCampaignSpec()
	want := referenceArtifact(t, spec)
	h := normalizedHash(t, spec)

	for _, parallel := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Workers: 1, Parallel: parallel, StateDir: dir, CheckpointEvery: 32}
			m1, err := OpenManager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			id, _, err := m1.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(30 * time.Second)
			for {
				v, err := m1.Lookup(id)
				if err != nil {
					t.Fatal(err)
				}
				if v.Cells >= 2 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("campaign never made progress")
				}
				time.Sleep(time.Millisecond)
			}
			m1.Stop()
			if _, err := os.Stat(filepath.Join(dir, "execs", h, "artifact")); err == nil {
				t.Fatal("fixture completed before the interrupt — grow it")
			}

			m2, err := OpenManager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Stop()
			waitStatus(t, m2, id, StatusDone) // persisted job id survives the restart
			got, ok, err := m2.Artifact(id)
			if err != nil || !ok {
				t.Fatalf("resumed artifact: ok=%v err=%v", ok, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("resumed artifact differs\n--- resumed\n%s--- uninterrupted\n%s", got, want)
			}
		})
	}
}

// TestManagerRestartServesCachedArtifact: completed executions survive a
// restart as cache entries — the old job id still resolves and identical
// resubmissions dedupe onto the stored artifact without re-running.
func TestManagerRestartServesCachedArtifact(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, Parallel: 1, StateDir: dir}
	m1, err := OpenManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := m1.Submit(quickFaultSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m1, id, StatusDone)
	want, ok, err := m1.Artifact(id)
	if err != nil || !ok {
		t.Fatalf("artifact: ok=%v err=%v", ok, err)
	}
	m1.Drain()

	m2, err := OpenManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop()
	v, err := m2.Lookup(id)
	if err != nil || v.Status != StatusDone {
		t.Fatalf("restarted lookup: status=%v err=%v", v.Status, err)
	}
	got, ok, err := m2.Artifact(id)
	if err != nil || !ok || !bytes.Equal(got, want) {
		t.Fatalf("cached artifact differs after restart (ok=%v err=%v)", ok, err)
	}

	id2, deduped, err := m2.Submit(quickFaultSpec(24))
	if err != nil || !deduped {
		t.Fatalf("resubmission: deduped=%v err=%v", deduped, err)
	}
	got2, ok, err := m2.Artifact(id2)
	if err != nil || !ok || !bytes.Equal(got2, want) {
		t.Fatalf("deduped artifact differs (ok=%v err=%v)", ok, err)
	}
}

// TestManagerBootDropsRetiredShardsSpec: a -state-dir written before the
// "shards" job-spec field was retired may hold a hash-consistent spec.json
// that no longer decodes. OpenManager must boot anyway and drop that
// execution like any other unparseable record (corrupt = absent).
func TestManagerBootDropsRetiredShardsSpec(t *testing.T) {
	dir := t.TempDir()
	st, err := openStateStore(dir, "w0")
	if err != nil {
		t.Fatal(err)
	}
	legacy := `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"shift+5","shards":4}}`
	h := canonHash(legacy)
	if err := os.MkdirAll(st.execDir(h), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.execDir(h), "spec.json"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := fmt.Sprintf(`{"id":"j000001","canonical":%q}`, legacy)
	if err := os.WriteFile(filepath.Join(st.jobsDir(), "j000001.json"), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := OpenManager(Config{Workers: 1, Parallel: 1, StateDir: dir})
	if err != nil {
		t.Fatalf("OpenManager refused a state dir holding a retired field: %v", err)
	}
	defer m.Stop()
	if _, err := m.Lookup("j000001"); !errors.Is(err, ErrNotFound) {
		t.Errorf("job on the dropped execution: err=%v, want ErrNotFound", err)
	}
	if _, err := os.Stat(st.execDir(h)); !os.IsNotExist(err) {
		t.Errorf("undecodable execution not removed from the state dir: %v", err)
	}
	id, _, err := m.Submit(quickFaultSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, id, StatusDone)
}
