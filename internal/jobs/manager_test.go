package jobs

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sr2201/internal/inject"
	"sr2201/internal/reconfig"
)

// quickFaultSpec is a single-fault run that drains in well under a second.
func quickFaultSpec(gap int64) Spec {
	return Spec{Kind: KindFault, Fault: &FaultSpec{
		Shape:   "4x4",
		Fails:   []string{"rtc:1,1@40"},
		Pattern: "shift+5",
		Waves:   2,
		Gap:     gap,
		Inject:  inject.Options{Retransmit: true},
	}}
}

// longFaultSpec keeps a worker busy for ~minutes unless canceled: a
// continuous wave schedule under a huge horizon.
func longFaultSpec(gap int64) Spec {
	return Spec{Kind: KindFault, Fault: &FaultSpec{
		Shape:   "4x4",
		Fails:   []string{"rtc:1,1@40"},
		Pattern: "shift+5",
		Waves:   1 << 20,
		Gap:     gap,
		Horizon: maxHorizon,
	}}
}

// waitStatus polls until the job reaches want or the deadline expires.
func waitStatus(t *testing.T, m *Manager, id string, want Status) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, err := m.Lookup(id)
		if err != nil {
			t.Fatalf("lookup %s: %v", id, err)
		}
		if v.Status == want {
			return v
		}
		if v.Status.terminal() {
			t.Fatalf("job %s reached %s (err=%q), want %s", id, v.Status, v.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobView{}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	m := NewManager(Config{Workers: 1, Parallel: 1})
	defer m.Stop()
	id, deduped, err := m.Submit(quickFaultSpec(24))
	if err != nil || deduped {
		t.Fatalf("submit: id=%s deduped=%v err=%v", id, deduped, err)
	}
	waitStatus(t, m, id, StatusDone)
	artifact, ok, err := m.Artifact(id)
	if err != nil || !ok || len(artifact) == 0 {
		t.Fatalf("artifact: ok=%v err=%v len=%d", ok, err, len(artifact))
	}
}

func TestCancelMidRunFreesWorker(t *testing.T) {
	m := NewManager(Config{Workers: 1, Parallel: 1})
	defer m.Stop()
	id, _, err := m.Submit(longFaultSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, id, StatusRunning)
	if err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, id, StatusCanceled)
	// The single worker must be free again: a quick job completes.
	id2, _, err := m.Submit(quickFaultSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, id2, StatusDone)
}

func TestQueueFullShedsLoad(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 1, Parallel: 1})
	defer m.Stop()
	idA, _, err := m.Submit(longFaultSpec(101))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, idA, StatusRunning) // worker took A; queue empty
	if _, _, err := m.Submit(longFaultSpec(102)); err != nil {
		t.Fatalf("queued submission refused: %v", err)
	}
	if _, _, err := m.Submit(longFaultSpec(103)); err != ErrQueueFull {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	// Identical specs dedupe instead of being shed: attaching to the
	// running execution needs no queue slot.
	if _, deduped, err := m.Submit(longFaultSpec(101)); err != nil || !deduped {
		t.Fatalf("dedupe under full queue: deduped=%v err=%v", deduped, err)
	}
}

func TestDrainCompletesRunningAndRefusesNew(t *testing.T) {
	m := NewManager(Config{Workers: 1, Parallel: 1})
	// A ~2M-cycle run: long enough to be mid-run when Drain starts.
	spec := Spec{Kind: KindFault, Fault: &FaultSpec{
		Shape:   "4x4",
		Fails:   []string{"rtc:1,1@40"},
		Pattern: "shift+5",
		Waves:   20_000,
		Gap:     100,
		Horizon: maxHorizon,
	}}
	id, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, id, StatusRunning)
	m.Drain()
	if v, _ := m.Lookup(id); v.Status != StatusDone {
		t.Errorf("drained job status = %s, want done (err=%q)", v.Status, v.Error)
	}
	if _, _, err := m.Submit(quickFaultSpec(24)); err != ErrDraining {
		t.Errorf("submission during drain: err=%v, want ErrDraining", err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 4, Parallel: 1})
	defer m.Stop()
	idA, _, err := m.Submit(longFaultSpec(104))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, idA, StatusRunning)
	idB, _, err := m.Submit(longFaultSpec(105))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(idB); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Lookup(idB); v.Status != StatusCanceled {
		t.Errorf("queued job after cancel: %s, want canceled", v.Status)
	}
	if err := m.Cancel(idA); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, idA, StatusCanceled)
}

// TestConcurrentSubmissions is the -race workhorse: 32 goroutines race 32
// submissions of 4 overlapping specs. No job may be lost or duplicated,
// deduped jobs must share one execution per distinct spec, every stream
// must be strictly ordered, and all same-spec artifacts must be identical.
func TestConcurrentSubmissions(t *testing.T) {
	m := NewManager(Config{Workers: 4, QueueDepth: 32, Parallel: 4})
	defer m.Stop()
	const goroutines = 32
	specs := []Spec{quickFaultSpec(24), quickFaultSpec(25), quickFaultSpec(26), quickFaultSpec(27)}

	ids := make([]string, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			id, _, err := m.Submit(specs[g%len(specs)])
			if err != nil {
				t.Errorf("submit %d: %v", g, err)
				return
			}
			ids[g] = id
		}(g)
	}
	wg.Wait()

	// No lost or duplicated jobs.
	seen := map[string]bool{}
	for g, id := range ids {
		if id == "" {
			t.Fatalf("goroutine %d lost its job", g)
		}
		if seen[id] {
			t.Fatalf("job id %s handed out twice", id)
		}
		seen[id] = true
	}

	artifacts := map[int][]byte{}
	for g, id := range ids {
		waitStatus(t, m, id, StatusDone)
		a, ok, err := m.Artifact(id)
		if err != nil || !ok {
			t.Fatalf("artifact %s: ok=%v err=%v", id, ok, err)
		}
		k := g % len(specs)
		if prev, dup := artifacts[k]; dup {
			if string(prev) != string(a) {
				t.Errorf("same-spec artifacts diverged for spec %d", k)
			}
		} else {
			artifacts[k] = a
		}
		// Strict event ordering: seq is exactly 0..n-1.
		evs, terminal, _, err := m.Events(id, 0)
		if err != nil || !terminal {
			t.Fatalf("events %s: terminal=%v err=%v", id, terminal, err)
		}
		for i, ev := range evs {
			if ev.Seq != int64(i) {
				t.Fatalf("job %s event %d has seq %d", id, i, ev.Seq)
			}
		}
		if evs[0].Type != "queued" || !Status(evs[len(evs)-1].Type).terminal() {
			t.Errorf("job %s stream endpoints: %s ... %s", id, evs[0].Type, evs[len(evs)-1].Type)
		}
	}

	mt := m.Metrics()
	if mt.Executions != int64(len(specs)) {
		t.Errorf("executions = %d, want %d (cache failed to dedupe)", mt.Executions, len(specs))
	}
	if mt.Submitted != goroutines {
		t.Errorf("submitted = %d, want %d", mt.Submitted, goroutines)
	}
	if mt.Deduped != goroutines-int64(len(specs)) {
		t.Errorf("deduped = %d, want %d", mt.Deduped, goroutines-len(specs))
	}
	if got := fmt.Sprint(mt.CacheHitRate); got != fmt.Sprint(float64(mt.Deduped)/float64(mt.Submitted)) {
		t.Errorf("cache hit rate %s inconsistent", got)
	}
}

// TestReconfigDelta: a hot swap counts as a reconfiguration and a fallback
// as a fall-back; an attempt that left the tables unchanged counts as
// neither.
func TestReconfigDelta(t *testing.T) {
	for outcome, want := range map[string]Progress{
		reconfig.OutcomeHotSwap:   {Reconfigured: 1},
		reconfig.OutcomeFallback:  {ReconfigFellBack: 1},
		reconfig.OutcomeUnchanged: {},
	} {
		if got := reconfigDelta(reconfig.Event{Outcome: outcome}); got != want {
			t.Errorf("reconfigDelta(%s) = %+v, want %+v", outcome, got, want)
		}
	}
}
