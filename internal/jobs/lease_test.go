package jobs

// The multi-worker test wall: several Managers sharing one state
// directory must behave like one crash-tolerant fleet — an expired lease
// is stolen by exactly one peer, which re-executes the run through its
// parked state to byte-identical artifacts, finished work is adopted instead
// of re-run, a
// spec that keeps killing its owners is quarantined, and a worker that
// loses the state dir degrades to local-queue-only instead of dying.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// takeoverSpec runs for a second or two (long enough to be killed mid-run,
// short enough that a resumed run finishes promptly).
func takeoverSpec() Spec {
	return Spec{Kind: KindFault, Fault: &FaultSpec{
		Shape:   "4x4",
		Fails:   []string{"rtc:1,1@40"},
		Pattern: "shift+5",
		Waves:   1_500, // ~150k cycles: survives the race detector's slowdown

		Gap:     100,
		Horizon: maxHorizon,
	}}
}

// waitPark blocks until the execution has written a park record (so a
// takeover has a parked state to reach).
func waitPark(t *testing.T, dir, h string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	park := filepath.Join(dir, "execs", h, "park.json")
	for time.Now().Before(deadline) {
		if _, err := os.Stat(park); err == nil {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no park record ever written")
}

// fleetConfig is one member of a shared-state-dir fleet with a short TTL
// so takeovers happen on test timescales.
func fleetConfig(dir, worker string, ttl time.Duration) Config {
	return Config{
		Workers:  1,
		Parallel: 1,
		StateDir: dir,
		WorkerID: worker,
		LeaseTTL: ttl,
	}
}

// TestLeaseTakeoverAfterKill: a SIGKILLed owner's job is taken over by a
// peer within one lease-expiry interval (freshness window + one recheck),
// re-executed through the parked state, and finishes byte-identical to an
// uninterrupted run.
func TestLeaseTakeoverAfterKill(t *testing.T) {
	spec := takeoverSpec()
	want := referenceArtifact(t, spec)
	h := normalizedHash(t, spec)
	dir := t.TempDir()
	const ttl = 400 * time.Millisecond

	mA, err := OpenManager(fleetConfig(dir, "wa", ttl))
	if err != nil {
		t.Fatal(err)
	}
	idA, _, err := mA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mA, idA, StatusRunning)
	waitPark(t, dir, h)
	killedAt := time.Now()
	mA.Kill() // no release, no final park: the on-disk state of a dead owner

	mB, err := OpenManager(fleetConfig(dir, "wb", ttl))
	if err != nil {
		t.Fatal(err)
	}
	defer mB.Stop()
	// The interrupted execution was re-enqueued from disk at boot; attach a
	// job to observe it.
	idB, deduped, err := mB.Submit(spec)
	if err != nil || !deduped {
		t.Fatalf("submit to peer: deduped=%v err=%v", deduped, err)
	}
	waitStatus(t, mB, idB, StatusRunning)
	took := time.Since(killedAt)

	// The lease stays fresh for up to one TTL after the kill; the next
	// recheck (backoff cadence is capped at one TTL) must steal it. The
	// extra second absorbs CI scheduling noise, not protocol latency.
	if limit := 2*ttl + time.Second; took > limit {
		t.Errorf("takeover took %v, want <= %v (one lease-expiry interval)", took, limit)
	}
	if mt := mB.Metrics(); mt.StolenLeases != 1 {
		t.Errorf("peer stole %d leases, want exactly 1", mt.StolenLeases)
	}

	v := waitStatus(t, mB, idB, StatusDone)
	got, ok, err := mB.Artifact(idB)
	if err != nil || !ok {
		t.Fatalf("taken-over artifact: ok=%v err=%v (job err=%q)", ok, err, v.Error)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("taken-over artifact differs from uninterrupted run\n--- takeover\n%s--- reference\n%s", got, want)
	}
	if mt := mB.Metrics(); mt.Executions != 1 || mt.Done != 1 {
		t.Errorf("peer ran %d executions (%d done), want exactly 1 visible result", mt.Executions, mt.Done)
	}
}

// TestRacingOpenManagerExactlyOneSteal: two managers booting concurrently
// over one state dir with an expired lease race for the takeover; the
// O_EXCL claim guarantees exactly one steals, the other adopts the
// winner's artifact, and both serve bytes identical to an uninterrupted
// run. (The race matrix runs this under -race.)
func TestRacingOpenManagerExactlyOneSteal(t *testing.T) {
	spec := takeoverSpec()
	want := referenceArtifact(t, spec)
	h := normalizedHash(t, spec)
	dir := t.TempDir()
	const ttl = 300 * time.Millisecond

	mA, err := OpenManager(fleetConfig(dir, "wa", ttl))
	if err != nil {
		t.Fatal(err)
	}
	idA, _, err := mA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mA, idA, StatusRunning)
	waitPark(t, dir, h)
	mA.Kill()
	time.Sleep(ttl + 50*time.Millisecond) // let the dead owner's lease expire

	peers := make([]*Manager, 2)
	errs := make([]error, 2)
	boot := make(chan int, 2)
	for i, w := range []string{"wb", "wc"} {
		go func(i int, w string) {
			peers[i], errs[i] = OpenManager(fleetConfig(dir, w, ttl))
			boot <- i
		}(i, w)
	}
	<-boot
	<-boot
	for i, err := range errs {
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		defer peers[i].Stop()
	}

	var artifacts [][]byte
	for _, m := range peers {
		id, deduped, err := m.Submit(spec)
		if err != nil || !deduped {
			t.Fatalf("submit: deduped=%v err=%v", deduped, err)
		}
		waitStatus(t, m, id, StatusDone)
		art, ok, err := m.Artifact(id)
		if err != nil || !ok {
			t.Fatalf("artifact: ok=%v err=%v", ok, err)
		}
		artifacts = append(artifacts, art)
	}
	steals := peers[0].Metrics().StolenLeases + peers[1].Metrics().StolenLeases
	if steals != 1 {
		t.Errorf("racing peers stole %d leases, want exactly 1", steals)
	}
	adopts := peers[0].Metrics().Adopted + peers[1].Metrics().Adopted
	if adopts != 1 {
		t.Errorf("racing peers adopted %d artifacts, want exactly 1 (the loser)", adopts)
	}
	for i, art := range artifacts {
		if !bytes.Equal(art, want) {
			t.Errorf("peer %d artifact differs from uninterrupted run", i)
		}
	}
}

// TestPoisonQuarantineAfterOwnerDeaths: a spec that keeps killing its
// owners is quarantined after PoisonAfter deaths — parked with its last
// park record and a classified error — while the fleet keeps serving other
// jobs; resubmissions dedupe onto the verdict instead of re-running it.
func TestPoisonQuarantineAfterOwnerDeaths(t *testing.T) {
	spec := longFaultSpec(100) // runs "forever": every owner dies mid-run
	h := normalizedHash(t, spec)
	dir := t.TempDir()
	const ttl = 300 * time.Millisecond
	cfg := func(w string) Config {
		c := fleetConfig(dir, w, ttl)
		c.PoisonAfter = 2
		return c
	}

	// Owner 1 claims, parks, dies.
	mA, err := OpenManager(cfg("wa"))
	if err != nil {
		t.Fatal(err)
	}
	idA, _, err := mA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mA, idA, StatusRunning)
	waitPark(t, dir, h)
	mA.Kill()

	// Owner 2 steals (death #1), runs, dies too (death #2 pending).
	mB, err := OpenManager(cfg("wb"))
	if err != nil {
		t.Fatal(err)
	}
	idB, _, err := mB.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mB, idB, StatusRunning)
	mB.Kill()

	// The third claimant sees two dead owners and quarantines instead of
	// running.
	mC, err := OpenManager(cfg("wc"))
	if err != nil {
		t.Fatal(err)
	}
	defer mC.Stop()
	idC, _, err := mC.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	var vC JobView
	for {
		vC, err = mC.Lookup(idC)
		if err != nil {
			t.Fatal(err)
		}
		if vC.Status == StatusFailed {
			break
		}
		if vC.Status == StatusDone || time.Now().After(deadline) {
			t.Fatalf("poison spec reached %s, want failed (quarantine)", vC.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !strings.Contains(vC.Error, "quarantined") || !strings.Contains(vC.Error, "died mid-run") {
		t.Errorf("quarantine error not classified: %q", vC.Error)
	}
	if mt := mC.Metrics(); mt.Poisoned != 1 {
		t.Errorf("poisoned count = %d, want 1", mt.Poisoned)
	}
	// The verdict and the last park record are kept on disk for forensics.
	if _, err := os.Stat(filepath.Join(dir, "execs", h, "poisoned.json")); err != nil {
		t.Errorf("no poisoned.json parked: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "execs", h, "park.json")); err != nil {
		t.Errorf("quarantine did not keep the last park record: %v", err)
	}

	// The fleet keeps serving: an unrelated job on the same worker runs fine.
	idOK, _, err := mC.Submit(quickFaultSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mC, idOK, StatusDone)

	// Resubmission dedupes onto the quarantine verdict, no re-run.
	idAgain, deduped, err := mC.Submit(spec)
	if err != nil || !deduped {
		t.Fatalf("resubmit poison: deduped=%v err=%v", deduped, err)
	}
	if v, _ := mC.Lookup(idAgain); v.Status != StatusFailed {
		t.Errorf("resubmitted poison status = %s, want failed immediately", v.Status)
	}

	// And a fresh boot over the same dir serves the verdict from rescan.
	mD, err := OpenManager(cfg("wd"))
	if err != nil {
		t.Fatal(err)
	}
	defer mD.Stop()
	idD, _, err := mD.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := mD.Lookup(idD); v.Status != StatusFailed || !strings.Contains(v.Error, "quarantined") {
		t.Errorf("rebooted worker serves poison spec as %s (err=%q), want classified failure", v.Status, v.Error)
	}
}

// TestAdoptionAcrossManagers: a second worker submitted the same spec
// defers to the live owner and adopts its artifact when it finishes — the
// fleet-wide content-addressed result cache, no duplicate execution.
func TestAdoptionAcrossManagers(t *testing.T) {
	spec := takeoverSpec()
	want := referenceArtifact(t, spec)
	dir := t.TempDir()
	const ttl = 300 * time.Millisecond

	mA, err := OpenManager(fleetConfig(dir, "wa", ttl))
	if err != nil {
		t.Fatal(err)
	}
	defer mA.Stop()
	idA, _, err := mA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mA, idA, StatusRunning)

	mB, err := OpenManager(fleetConfig(dir, "wb", ttl))
	if err != nil {
		t.Fatal(err)
	}
	defer mB.Stop()
	idB, deduped, err := mB.Submit(spec)
	if err != nil || !deduped {
		t.Fatalf("submit to peer: deduped=%v err=%v", deduped, err)
	}
	waitStatus(t, mB, idB, StatusDone)
	got, ok, err := mB.Artifact(idB)
	if err != nil || !ok {
		t.Fatalf("adopted artifact: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("adopted artifact differs from the owner's run")
	}
	if mt := mB.Metrics(); mt.Adopted != 1 || mt.StolenLeases != 0 {
		t.Errorf("peer adopted=%d stolen=%d, want adopted exactly once with no steal", mt.Adopted, mt.StolenLeases)
	}
	waitStatus(t, mA, idA, StatusDone)
}

// TestDegradedModeLocalQueueOnly: losing the state directory mid-flight
// (ENOSPC, unmounted volume — here, the directory replaced by a plain
// file) demotes the worker to local-queue-only mode: submissions still
// run, in memory, and readiness reports the loss instead of the process
// dying.
func TestDegradedModeLocalQueueOnly(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "state")
	m, err := OpenManager(fleetConfig(dir, "wa", time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	id1, _, err := m.Submit(quickFaultSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, id1, StatusDone)

	// Lose the volume: every future state write must fail.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	want := referenceArtifact(t, quickFaultSpec(26))
	id2, _, err := m.Submit(quickFaultSpec(26))
	if err != nil {
		t.Fatalf("submission after state loss must shed to the local queue, got %v", err)
	}
	waitStatus(t, m, id2, StatusDone)
	got, ok, err := m.Artifact(id2)
	if err != nil || !ok || !bytes.Equal(got, want) {
		t.Fatalf("degraded-mode artifact wrong: ok=%v err=%v", ok, err)
	}

	if degraded, derr := m.Degraded(); !degraded || derr == nil {
		t.Errorf("manager not degraded after losing the state dir (err=%v)", derr)
	}
	ready, reasons := m.Readiness()
	if ready {
		t.Error("degraded manager reports ready")
	}
	found := false
	for _, r := range reasons {
		if strings.Contains(r, "degraded") || strings.Contains(r, "state dir") {
			found = true
		}
	}
	if !found {
		t.Errorf("readiness reasons %q do not name the state loss", reasons)
	}
	if mt := m.Metrics(); !mt.Degraded {
		t.Error("metrics do not report degraded mode")
	}
}

// TestLeaseAcquireSemantics pins the protocol table at the store layer:
// fresh claim, held while renewed, plain resume after release (no death),
// steal after expiry (death counted), quarantine at the threshold.
func TestLeaseAcquireSemantics(t *testing.T) {
	st, err := openStateStore(t.TempDir(), "wa")
	if err != nil {
		t.Fatal(err)
	}
	const h = "00000000deadbeef"
	const ttl = 50 * time.Millisecond
	if err := st.saveExecSpec(h, "spec"); err != nil {
		t.Fatal(err)
	}

	res, err := st.acquire(h, "wa", ttl, 3)
	if err != nil || res.kind != acqOwned || res.epoch != 1 || res.stolen {
		t.Fatalf("first acquire: %+v err=%v, want owned epoch 1", res, err)
	}
	// A fresh lease holds off peers.
	res, err = st.acquire(h, "wb", ttl, 3)
	if err != nil || res.kind != acqHeld {
		t.Fatalf("acquire over fresh lease: %+v err=%v, want held", res, err)
	}
	// A clean release lets a peer resume without counting a death.
	if err := st.releaseLease(h, "wa", 1); err != nil {
		t.Fatal(err)
	}
	res, err = st.acquire(h, "wb", ttl, 3)
	if err != nil || res.kind != acqOwned || res.epoch != 2 || res.stolen || res.deaths != 0 {
		t.Fatalf("acquire over released lease: %+v err=%v, want clean resume", res, err)
	}
	// The displaced owner's renewal fails.
	if err := st.renewLease(h, "wa", 1); !errors.Is(err, errLeaseLost) {
		t.Fatalf("stale renew: %v, want errLeaseLost", err)
	}
	// Expiry without release is a death: the thief's claim counts it.
	time.Sleep(ttl + 10*time.Millisecond)
	res, err = st.acquire(h, "wc", ttl, 3)
	if err != nil || res.kind != acqOwned || res.epoch != 3 || !res.stolen || res.deaths != 1 {
		t.Fatalf("steal after expiry: %+v err=%v, want stolen with 1 death", res, err)
	}
	// A second and third death cross the threshold: quarantine.
	time.Sleep(ttl + 10*time.Millisecond)
	res, err = st.acquire(h, "wd", ttl, 3)
	if err != nil || res.kind != acqOwned || res.deaths != 2 {
		t.Fatalf("second steal: %+v err=%v", res, err)
	}
	time.Sleep(ttl + 10*time.Millisecond)
	res, err = st.acquire(h, "we", ttl, 3)
	if err != nil || res.kind != acqPoisoned || res.deaths != 3 {
		t.Fatalf("threshold claim: %+v err=%v, want poisoned at 3 deaths", res, err)
	}
	// The verdict is sticky and cheap: no further claims are consumed.
	if top, _ := st.topEpoch(h); top != 5 {
		t.Fatalf("top epoch = %d, want 5", top)
	}
	res, err = st.acquire(h, "wf", ttl, 3)
	if err != nil || res.kind != acqPoisoned {
		t.Fatalf("acquire on quarantined exec: %+v err=%v", res, err)
	}
	if top, _ := st.topEpoch(h); top != 5 {
		t.Fatal("quarantined acquire consumed a claim epoch")
	}

	// An artifact supersedes everything: peers adopt it.
	if err := st.saveArtifact(h, []byte("result")); err != nil {
		t.Fatal(err)
	}
	os.Remove(st.poisonPath(h))
	res, err = st.acquire(h, "wg", ttl, 3)
	if err != nil || res.kind != acqAdopt || string(res.artifact) != "result" {
		t.Fatalf("acquire with artifact: %+v err=%v, want adopt", res, err)
	}
	// A bit-flipped artifact reads as absent (checksum sidecar) — the spec
	// re-runs rather than serving corrupt bytes.
	if err := os.WriteFile(filepath.Join(st.execDir(h), "artifact"), []byte("resulx"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.loadArtifact(h); ok {
		t.Fatal("corrupt artifact served")
	}
}
