// Package chaostest is the fleet's chaos-kill equivalence wall: real
// mdxserve processes sharing one -state-dir are SIGKILLed (and killed from
// the inside via the MDXSERVE_FAILPOINT hook) mid-campaign, restarted, and
// the surviving fleet must converge to artifacts byte-identical to a
// single-worker run that was never interrupted — with exactly one visible
// result per canonical spec and zero lost or duplicated jobs.
//
// Every kill is deterministic: a failpoint fires at an exact simulated
// cycle of an exact execution, and external SIGKILLs are sent only after
// the harness has observed the on-disk condition they target (a park
// record). Deadlines below are failsafes for a hung fleet, not the
// synchronization mechanism.
package chaostest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sr2201/internal/campaign"
	"sr2201/internal/jobs"
)

// buildOnce compiles cmd/mdxserve once per test binary invocation.
var buildOnce = struct {
	sync.Once
	bin string
	err error
}{}

func serverBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "chaostest-bin-")
		if err != nil {
			buildOnce.err = err
			return
		}
		bin := filepath.Join(dir, "mdxserve")
		cmd := exec.Command("go", "build", "-o", bin, "sr2201/cmd/mdxserve")
		cmd.Dir = repoRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			buildOnce.err = fmt.Errorf("go build mdxserve: %v\n%s", err, out)
			return
		}
		buildOnce.bin = bin
	})
	if buildOnce.err != nil {
		t.Fatal(buildOnce.err)
	}
	return buildOnce.bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(wd))) // internal/jobs/chaostest -> repo root
}

// proc is one live mdxserve fleet member under harness control.
type proc struct {
	t      *testing.T
	worker string
	cmd    *exec.Cmd
	base   string // http://host:port, scraped from the listen banner
	exited chan error
}

// startWorker boots one fleet member on stateDir and waits for its listen
// banner. failpoint ("" = none) becomes MDXSERVE_FAILPOINT.
func startWorker(t *testing.T, bin, stateDir, worker string, ttl time.Duration, poisonAfter int, failpoint string) *proc {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-state-dir", stateDir,
		"-worker", worker,
		"-workers", "1",
		"-parallel", "1",
		"-lease-ttl", ttl.String(),
		"-poison-after", fmt.Sprint(poisonAfter),
	)
	cmd.Env = append(os.Environ(), "MDXSERVE_FAILPOINT="+failpoint)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{t: t, worker: worker, cmd: cmd, exited: make(chan error, 1)}
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-p.exited
	})

	// Scrape "mdxserve: listening on 127.0.0.1:PORT (...)" and drain the
	// rest of stderr so the child never blocks on a full pipe.
	banner := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, "listening on ") {
				f := strings.Fields(line)
				for i, w := range f {
					if w == "on" && i+1 < len(f) {
						select {
						case banner <- f[i+1]:
						default:
						}
					}
				}
			}
		}
	}()
	go func() { p.exited <- cmd.Wait() }()

	select {
	case addr := <-banner:
		p.base = "http://" + addr
	case err := <-p.exited:
		p.exited <- err
		t.Fatalf("worker %s exited before listening: %v", worker, err)
	case <-time.After(30 * time.Second):
		t.Fatalf("worker %s never printed its listen banner", worker)
	}
	return p
}

// waitExit blocks until the process exits and returns its exit code.
func (p *proc) waitExit(timeout time.Duration) int {
	p.t.Helper()
	select {
	case err := <-p.exited:
		p.exited <- err // keep the channel readable for Cleanup
		if err == nil {
			return 0
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		p.t.Fatalf("worker %s exit: %v", p.worker, err)
	case <-time.After(timeout):
		p.t.Fatalf("worker %s did not exit in %v", p.worker, timeout)
	}
	return -1
}

// sigkill delivers an uncatchable kill — the crash the lease layer exists
// to survive.
func (p *proc) sigkill() {
	p.t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		p.t.Fatal(err)
	}
	p.waitExit(10 * time.Second)
}

// submit POSTs a spec and returns the job id.
func (p *proc) submit(spec jobs.Spec) string {
	p.t.Helper()
	id, err := p.post(spec)
	if err != nil {
		p.t.Fatalf("submit to %s: %v", p.worker, err)
	}
	return id
}

// submitDying submits a spec to a worker whose failpoint the spec itself
// may fire before the HTTP response is written. The worker saves the job
// record under its lock before any run can start, so when the response is
// lost the id is the one recorded in jobs/<worker>/ for the spec's
// canonical form.
func (p *proc) submitDying(spec jobs.Spec, stateDir string) string {
	p.t.Helper()
	id, err := p.post(spec)
	if err == nil {
		return id
	}
	norm := spec.Clone()
	if err := norm.Normalize(); err != nil {
		p.t.Fatal(err)
	}
	recs, _ := filepath.Glob(filepath.Join(stateDir, "jobs", p.worker, "*.json"))
	for _, path := range recs {
		data, _ := os.ReadFile(path) // an unreadable file is not the record
		var rec struct{ ID, Canonical string }
		if json.Unmarshal(data, &rec) == nil && rec.Canonical == norm.Canonical() {
			return rec.ID
		}
	}
	p.t.Fatalf("submit to %s: %v, and no job record holds the spec", p.worker, err)
	return ""
}

// post sends one submission. A transport error (the worker died mid-request)
// is returned; any other failure is fatal.
func (p *proc) post(spec jobs.Spec) (string, error) {
	p.t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		p.t.Fatal(err)
	}
	resp, err := http.Post(p.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		p.t.Fatalf("submit to %s: %s: %s", p.worker, resp.Status, msg)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// jobView is the harness's slice of GET /jobs/{id}.
type jobView struct {
	Status string `json:"status"`
	Error  string `json:"error"`
}

func (p *proc) lookup(id string) (jobView, error) {
	resp, err := http.Get(p.base + "/jobs/" + id)
	if err != nil {
		return jobView{}, err
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return jobView{}, err
	}
	return v, nil
}

// waitTerminal polls until the job leaves the queued/running states.
func (p *proc) waitTerminal(id string, timeout time.Duration) jobView {
	p.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v, err := p.lookup(id)
		if err == nil && v.Status != "queued" && v.Status != "running" && v.Status != "" {
			return v
		}
		if time.Now().After(deadline) {
			p.t.Fatalf("job %s on %s never reached a terminal state (last: %+v, err=%v)", id, p.worker, v, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (p *proc) artifact(id string) []byte {
	p.t.Helper()
	resp, err := http.Get(p.base + "/jobs/" + id + "/artifact")
	if err != nil {
		p.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		p.t.Fatalf("artifact %s on %s: %s: %s", id, p.worker, resp.Status, msg)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		p.t.Fatal(err)
	}
	return data
}

// faultSpec builds one campaign member; waves scales the runtime.
func faultSpec(waves int, gap int64) jobs.Spec {
	return jobs.Spec{Kind: jobs.KindFault, Fault: &jobs.FaultSpec{
		Shape:   "4x4",
		Fails:   []string{"rtc:1,1@40"},
		Pattern: "shift+5",
		Waves:   waves,
		Gap:     gap,
		Horizon: 1 << 30, // default horizon truncates the long members
	}}
}

// waitPark blocks until the execution writes its first park record (a
// cycle and its state hash) and returns it — the observed condition an
// external SIGKILL targets.
func waitPark(t *testing.T, stateDir, hash string) []byte {
	t.Helper()
	park := filepath.Join(stateDir, "execs", hash, "park.json")
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(park); err == nil {
			return data
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("execution %s never wrote a park record", hash)
	return nil
}

// checkParked holds a park record to the run it parked: re-executing the
// spec in-process to the recorded cycle reaches the recorded hash. The
// thief re-executes to the same cycle and fails the job unless it reaches
// the same hash, so a converged job passed through this state.
func checkParked(t *testing.T, record []byte, spec jobs.Spec) {
	t.Helper()
	var park struct {
		Cycle int64  `json:"cycle"`
		Hash  string `json:"hash"`
	}
	if err := json.Unmarshal(record, &park); err != nil || park.Cycle <= 0 {
		t.Fatalf("park record %s: %v", record, err)
	}
	f := spec.Fault
	cell, err := campaign.RunText{
		Shape: f.Shape, Fails: f.Fails, Patterns: []string{f.Pattern},
		Waves: f.Waves, Gap: f.Gap, Horizon: f.Horizon,
	}.Spec()
	if err != nil {
		t.Fatal(err)
	}
	c, err := campaign.NewCellRun(cell)
	if err != nil {
		t.Fatal(err)
	}
	for c.Cycle() < park.Cycle && !c.Step() {
	}
	if got := fmt.Sprintf("%016x", c.Mark().Hash); c.Cycle() != park.Cycle || got != park.Hash {
		t.Fatalf("park record says hash %s at cycle %d; the run reaches %s at cycle %d", park.Hash, park.Cycle, got, c.Cycle())
	}
}

// TestChaosKillFleetEquivalence is the acceptance wall: a 3-process fleet
// suffers one deterministic in-process death (failpoint) and one external
// SIGKILL mid-run, both victims restart, and every submitted spec — one of
// them submitted twice, to two different workers — converges to the exact
// bytes a never-interrupted single worker produces, with exactly one
// execution directory and one artifact per canonical spec on disk.
func TestChaosKillFleetEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness spawns real server processes")
	}
	bin := serverBinary(t)
	const ttl = 500 * time.Millisecond

	longA := faultSpec(3000, 100) // killed via failpoint on wa
	longB := faultSpec(3000, 80)  // killed via SIGKILL on wb, after it parked
	quick := faultSpec(40, 24)    // submitted twice: fleet-wide dedupe
	specs := []jobs.Spec{longA, longB, quick}

	hashA, err := jobs.CanonicalHash(longA)
	if err != nil {
		t.Fatal(err)
	}
	hashB, err := jobs.CanonicalHash(longB)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: one worker, one state dir, no interruptions.
	refDir := t.TempDir()
	ref := startWorker(t, bin, refDir, "ref", time.Minute, 3, "")
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		id := ref.submit(spec)
		if v := ref.waitTerminal(id, 120*time.Second); v.Status != "done" {
			t.Fatalf("reference job %d: %+v", i, v)
		}
		want[i] = ref.artifact(id)
	}

	// The fleet. wa carries a failpoint that kills it (os.Exit 3, no
	// cleanup) the moment longA passes cycle 2000.
	fleetDir := t.TempDir()
	wa := startWorker(t, bin, fleetDir, "wa", ttl, 3, hashA+"@2000")
	wb := startWorker(t, bin, fleetDir, "wb", ttl, 3, "")
	wc := startWorker(t, bin, fleetDir, "wc", ttl, 3, "")

	idA := wa.submitDying(longA, fleetDir)
	idB := wb.submit(longB)
	idQ1 := wc.submit(quick)
	idQ2 := wb.submit(quick) // same canonical spec via a different worker

	// Death 1 (in-process, deterministic cycle): wa dies at longA@2000.
	if code := wa.waitExit(120 * time.Second); code != 3 {
		t.Fatalf("failpoint exit code = %d, want 3", code)
	}
	// Death 2 (external): SIGKILL wb only after longB demonstrably parked —
	// the thief must re-execute to the recorded cycle and reach its hash
	// there (a mismatch fails the job, which the convergence check below
	// would report).
	parked := waitPark(t, fleetDir, hashB)
	wb.sigkill()
	checkParked(t, parked, longB)

	// Both victims restart as the same fleet members (same worker ids
	// reload their persisted job records) without failpoints.
	wa = startWorker(t, bin, fleetDir, "wa", ttl, 3, "")
	wb = startWorker(t, bin, fleetDir, "wb", ttl, 3, "")

	// Convergence: every job terminal on the worker that accepted it.
	checks := []struct {
		p    *proc
		id   string
		want []byte
	}{
		{wa, idA, want[0]},
		{wb, idB, want[1]},
		{wc, idQ1, want[2]},
		{wb, idQ2, want[2]},
	}
	for i, c := range checks {
		if v := c.p.waitTerminal(c.id, 120*time.Second); v.Status != "done" {
			t.Fatalf("fleet job %d on %s: %+v", i, c.p.worker, v)
		}
		got := c.p.artifact(c.id)
		if !bytes.Equal(got, c.want) {
			t.Errorf("fleet job %d on %s: artifact differs from single-worker run\n--- fleet\n%s--- reference\n%s",
				i, c.p.worker, got, c.want)
		}
	}

	// Exactly one visible result per canonical spec: one exec dir per
	// hash, each holding exactly one checksummed artifact, none extra.
	ents, err := os.ReadDir(filepath.Join(fleetDir, "execs"))
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		if found[ent.Name()] {
			t.Fatalf("duplicate exec dir %s", ent.Name())
		}
		found[ent.Name()] = true
		if _, err := os.Stat(filepath.Join(fleetDir, "execs", ent.Name(), "artifact")); err != nil {
			t.Errorf("exec %s has no artifact after convergence: %v", ent.Name(), err)
		}
	}
	if len(found) != len(specs) {
		t.Errorf("fleet left %d exec dirs, want exactly %d (one per canonical spec)", len(found), len(specs))
	}
}

// TestChaosPoisonQuarantine: a spec that kills every owner (the failpoint
// rides on both workers) is quarantined after -poison-after deaths, with a
// classified error, while the fleet keeps completing healthy jobs.
func TestChaosPoisonQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness spawns real server processes")
	}
	bin := serverBinary(t)
	const ttl = 400 * time.Millisecond

	poison := faultSpec(3000, 100)
	healthy := faultSpec(40, 24)
	hashP, err := jobs.CanonicalHash(poison)
	if err != nil {
		t.Fatal(err)
	}
	failpoint := hashP + "@1000"

	dir := t.TempDir()
	// Both workers die if they ever run the poison spec past cycle 1000;
	// quarantine happens at claim time, before running, so the worker that
	// trips the threshold survives to serve the verdict.
	wa := startWorker(t, bin, dir, "wa", ttl, 2, failpoint)
	wb := startWorker(t, bin, dir, "wb", ttl, 2, failpoint)

	idP := wa.submit(poison)
	idH := wb.submit(healthy)

	// The healthy job completes while the poison spec is busy killing
	// owners — the fleet never stops serving.
	if v := wb.waitTerminal(idH, 120*time.Second); v.Status != "done" {
		t.Fatalf("healthy job alongside poison: %+v", v)
	}

	// Death loop: whichever worker claims the poison spec dies at cycle
	// 1000 and is restarted (same id, failpoint still armed) until a
	// claimant reads deaths >= 2 and quarantines instead of running.
	deadline := time.Now().Add(180 * time.Second)
	var verdict jobView
	for {
		select {
		case err := <-wa.exited:
			wa.exited <- err // keep readable for waitExit and Cleanup
			if code := wa.waitExit(time.Second); code != 3 {
				t.Fatalf("wa exit code %d, want 3 (failpoint)", code)
			}
			wa = startWorker(t, bin, dir, "wa", ttl, 2, failpoint)
		case err := <-wb.exited:
			wb.exited <- err
			if code := wb.waitExit(time.Second); code != 3 {
				t.Fatalf("wb exit code %d, want 3 (failpoint)", code)
			}
			wb = startWorker(t, bin, dir, "wb", ttl, 2, failpoint)
		case <-time.After(50 * time.Millisecond):
		}
		// wa owns the job record; after a restart it reloads it.
		v, err := wa.lookup(idP)
		if err == nil && v.Status == "failed" {
			verdict = v
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("poison spec never quarantined (last: %+v, err=%v)", v, err)
		}
	}
	if !strings.Contains(verdict.Error, "quarantined") || !strings.Contains(verdict.Error, "died mid-run") {
		t.Errorf("quarantine verdict %q is not classified", verdict.Error)
	}
	if _, err := os.Stat(filepath.Join(dir, "execs", hashP, "poisoned.json")); err != nil {
		t.Errorf("no poisoned.json on disk: %v", err)
	}
	// The forensic park record is kept with the quarantine.
	if _, err := os.Stat(filepath.Join(dir, "execs", hashP, "park.json")); err != nil {
		t.Errorf("quarantine dropped the park record: %v", err)
	}

	// The fleet still serves after the quarantine: another healthy spec.
	idH2 := wb.submit(faultSpec(40, 26))
	if v := wb.waitTerminal(idH2, 120*time.Second); v.Status != "done" {
		t.Errorf("healthy job after quarantine: %+v", v)
	}
}
