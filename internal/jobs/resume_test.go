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
	"sr2201/internal/recovery"
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

// liveResumeSpec is the Fig. 9 separate-D-XB machine under recovery with a
// second, mid-run fault under online reconfiguration: two recoveries (cycles
// 272 and 872), one reconfiguration at cycle 1200; at 30 waves it drains at
// cycle 2934. Every progress counter a job reports moves in it.
func liveResumeSpec(t *testing.T, waves int) Spec {
	t.Helper()
	spec := Spec{Kind: KindFault, Fault: &FaultSpec{
		Shape:      "4x4",
		Presets:    []string{"rtc:2,1"},
		Fails:      []string{"rtc:1,1@1200"},
		Pattern:    "pair:0,1>2,2",
		Broadcasts: []string{"3,2@0", "3,2@600", "3,2@1200"},
		Waves:      waves,
		Gap:        100,
		PacketSize: 24,
		Horizon:    maxHorizon,
		Inject:     inject.Options{Retransmit: true, RetryAfter: 32, StallThreshold: 256},
		Recovery:   recovery.Options{Enabled: true, StallThreshold: 256},
		Variant:    campaign.VariantText{SXB: "0,0", DXB: "0,3", DXBSeparate: true},
		Reconfig:   campaign.ReconfigText{Mode: "fault"},
	}}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// parkedStore is a fresh state store holding spec's execution directory, as
// the manager creates it when it accepts the submission.
func parkedStore(t *testing.T, spec Spec) *execState {
	t.Helper()
	store, err := openStateStore(t.TempDir(), "w0")
	if err != nil {
		t.Fatal(err)
	}
	st := &execState{store: store, hash: canonHash(spec.Canonical())}
	if err := store.saveExecSpec(st.hash, spec.Canonical()); err != nil {
		t.Fatal(err)
	}
	return st
}

// markAt steps spec's run in-process to cycle k and returns its Mark.
func markAt(t *testing.T, spec Spec, k int64) campaign.Mark {
	t.Helper()
	cell, err := spec.Fault.text().Spec()
	if err != nil {
		t.Fatal(err)
	}
	r, err := campaign.NewSingleRun(cell, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for r.Cycle() < k {
		if r.Step() {
			t.Fatalf("run finished at cycle %d before the park point %d", r.Cycle(), k)
		}
	}
	return r.Mark()
}

// TestRunSpecFaultStaleSnapshotRestarts leaves the mid-run snapshot an
// earlier build parked — testdata/single_v3.snap, written at cycle 512 of
// this very spec, whole and torn — in the execution directory, and checks
// the run sweeps it and runs from cycle 0: every cycle is reported, and the
// artifact equals the uninterrupted run's.
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

	for name, snap := range map[string][]byte{"old layout": v3, "truncated": v3[:len(v3)/2]} {
		t.Run(name, func(t *testing.T) {
			st := parkedStore(t, spec)
			path := filepath.Join(st.store.execDir(st.hash), "single.snap")
			if err := os.WriteFile(path, snap, 0o644); err != nil {
				t.Fatal(err)
			}
			var cycles int64
			got, err := runSpec(context.Background(), spec, budget, 1, func(d Progress) { cycles += d.Cycles }, st)
			if err != nil {
				t.Fatalf("run over a retired snapshot: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("artifact differs from the uninterrupted run's\n--- got\n%s--- want\n%s", got, want)
			}
			if cycles != wantCycles {
				t.Errorf("reported %d cycles, want %d (a run from cycle 0)", cycles, wantCycles)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("retired single.snap not swept at claim: %v", err)
			}
		})
	}
}

// TestRunSpecFaultResume parks a fault run at several cycles — before any
// event, inside a recovery window, between the recoveries and the
// reconfiguration, just after the reconfiguration, on the park cadence, and
// wherever a cancel lands — and resumes each: the re-execution must reach
// the parked hash, and the artifact and every progress count (cycles,
// cells, recoveries, reconfigurations) must equal the uninterrupted run's.
func TestRunSpecFaultResume(t *testing.T) {
	spec := liveResumeSpec(t, 30)
	budget := sweep.NewLimiter(1)
	var want Progress // summed as a job view sums it
	wantArt, err := runSpec(context.Background(), spec, budget, 1, want.add, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.Recoveries != 2 || want.Reconfigured != 1 || want.ReconfigDrained == 0 || want.Cells != 1 || want.Cycles != 2934 {
		t.Fatalf("fixture moved: uninterrupted run reported %+v", want)
	}

	for _, k := range []int64{100, 280, 1100, 1210, 2048, -1} {
		name := fmt.Sprintf("k=%d", k)
		if k < 0 {
			name = "cancel"
		}
		t.Run(name, func(t *testing.T) {
			st := parkedStore(t, spec)
			if k > 0 {
				if err := st.store.savePark(st.hash, markAt(t, spec, k)); err != nil {
					t.Fatal(err)
				}
			} else {
				ctx, cancel := context.WithCancel(context.Background())
				_, err := runSpec(ctx, spec, budget, 1, func(d Progress) {
					if d.Cycles > 0 {
						cancel()
					}
				}, st)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("interrupted run: %v, want a cancel — grow the fixture", err)
				}
			}
			if _, ok := st.store.loadPark(st.hash); !ok {
				t.Fatal("no park record to resume from")
			}

			var got Progress
			gotArt, err := runSpec(context.Background(), spec, budget, 1, got.add, st)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if !bytes.Equal(gotArt, wantArt) {
				t.Errorf("resumed artifact differs\n--- resumed\n%s--- uninterrupted\n%s", gotArt, wantArt)
			}
			if got != want {
				t.Errorf("resumed run reported %+v, the uninterrupted run %+v", got, want)
			}
			if _, ok := st.store.loadPark(st.hash); ok {
				t.Error("park record not retired after completion")
			}
		})
	}
}

// TestManagerResumeFaultJobView stops a stateful manager mid-way through a
// long fault job, after its recoveries and reconfiguration were reported,
// and resumes it on a second manager over the same directory: the job's
// view — cycles, cells, recoveries, reconfigurations — ends equal to an
// uninterrupted run's, because the re-execution reports everything again.
func TestManagerResumeFaultJobView(t *testing.T) {
	spec := liveResumeSpec(t, 3000)
	ref := NewManager(Config{Workers: 1, Parallel: 1})
	defer ref.Stop()
	refID, _, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitStatus(t, ref, refID, StatusDone)
	if want.Recoveries == 0 || want.Reconfigured == 0 || want.Cells != 1 {
		t.Fatalf("fixture moved: uninterrupted view %+v", want.Progress)
	}

	dir := t.TempDir()
	h := normalizedHash(t, spec)
	cfg := Config{Workers: 1, Parallel: 1, StateDir: dir}
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
		if v.Reconfigured > 0 {
			break
		}
		if v.Status.terminal() || time.Now().After(deadline) {
			t.Fatalf("job reached %s before its reconfiguration was reported", v.Status)
		}
		time.Sleep(time.Millisecond)
	}
	m1.Stop()
	if _, ok := m1.state.loadPark(h); !ok {
		t.Fatal("no park record after the stop — grow the fixture")
	}

	m2, err := OpenManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop()
	got := waitStatus(t, m2, id, StatusDone)
	if got.Progress != want.Progress {
		t.Errorf("resumed job view %+v, uninterrupted %+v", got.Progress, want.Progress)
	}
	art, _, err := m2.Artifact(id)
	if err != nil {
		t.Fatal(err)
	}
	if wantArt, _, _ := ref.Artifact(refID); !bytes.Equal(art, wantArt) {
		t.Error("resumed artifact differs from the uninterrupted run's")
	}
}

// TestRunSpecFaultParkDivergence resumes over a park record whose hash is
// not the run's at that cycle: the job fails with ErrDiverged naming the
// execution, the cycle and both hashes, instead of restarting silently. A
// torn record reads as absent and the run goes from cycle 0.
func TestRunSpecFaultParkDivergence(t *testing.T) {
	spec := faultResumeSpec(t)
	budget := sweep.NewLimiter(1)
	noop := func(Progress) {}
	want, err := runSpec(context.Background(), spec, budget, 1, noop, nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := markAt(t, spec, 300)

	t.Run("tampered", func(t *testing.T) {
		st := parkedStore(t, spec)
		bad := campaign.Mark{Cycle: mk.Cycle, Hash: mk.Hash ^ 0xff}
		if err := st.store.savePark(st.hash, bad); err != nil {
			t.Fatal(err)
		}
		_, err := runSpec(context.Background(), spec, budget, 1, noop, st)
		if !errors.Is(err, campaign.ErrDiverged) {
			t.Fatalf("resume over a tampered record: %v, want ErrDiverged", err)
		}
		for _, part := range []string{st.hash, "cycle 300", fmt.Sprintf("%016x", mk.Hash), fmt.Sprintf("%016x", bad.Hash)} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("divergence error %q does not name %q", err, part)
			}
		}
	})

	t.Run("torn", func(t *testing.T) {
		st := parkedStore(t, spec)
		if err := st.store.savePark(st.hash, campaign.Mark{Cycle: mk.Cycle, Hash: mk.Hash ^ 0xff}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(st.store.parkPath(st.hash))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.store.parkPath(st.hash), data[:len(data)-9], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.store.loadPark(st.hash); ok {
			t.Fatal("a torn park record loaded")
		}
		got, err := runSpec(context.Background(), spec, budget, 1, noop, st)
		if err != nil {
			t.Fatalf("resume over a torn record: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("artifact differs from the uninterrupted run's\n--- got\n%s--- want\n%s", got, want)
		}
	})
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
			cfg := Config{Workers: 1, Parallel: parallel, StateDir: dir}
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
