package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sr2201/internal/stats"
	"sr2201/internal/sweep"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// terminal reports whether no further transitions can happen.
func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Progress is an execution's work tally. One increment reported from inside
// a run is a Progress too.
type Progress struct {
	// Cells is the sweep cells finished.
	Cells int64 `json:"cells,omitempty"`
	// Cycles is the simulated cycles retired.
	Cycles int64 `json:"cycles,omitempty"`
	// Recoveries is the deadlock recoveries taken by the liveness layer.
	Recoveries int64 `json:"recoveries,omitempty"`
	// Reconfigured is the committed online reconfigurations (hot swaps plus
	// bounded drains), ReconfigDrained the in-flight packets those drains
	// purged, and ReconfigFellBack the attempts that degraded to
	// rebuild-in-place.
	Reconfigured     int64 `json:"reconfigured,omitempty"`
	ReconfigDrained  int64 `json:"reconfig_drained,omitempty"`
	ReconfigFellBack int64 `json:"reconfig_fellback,omitempty"`
}

func (p *Progress) add(d Progress) {
	p.Cells += d.Cells
	p.Cycles += d.Cycles
	p.Recoveries += d.Recoveries
	p.Reconfigured += d.Reconfigured
	p.ReconfigDrained += d.ReconfigDrained
	p.ReconfigFellBack += d.ReconfigFellBack
}

// Event is one entry of a job's ordered progress stream. Seq increases by
// exactly one per event within a stream.
type Event struct {
	Seq  int64  `json:"seq"`
	Type string `json:"type"` // queued | started | progress | recovery | reconfig | requeued | done | failed | canceled
	// Progress is the execution's cumulative tally.
	Progress
	Error string `json:"error,omitempty"`
}

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull is load shedding: the bounded FIFO is at capacity (429).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining means the manager no longer accepts submissions (503).
	ErrDraining = errors.New("jobs: draining")
	// ErrNotFound means no such job id (404).
	ErrNotFound = errors.New("jobs: no such job")
	// ErrPoisoned classifies a quarantined spec: it killed enough owners
	// mid-run that the fleet parked it instead of crash-looping.
	ErrPoisoned = errors.New("jobs: spec quarantined as poison")
)

// execution is one actual run of a canonical spec. Several jobs may attach
// to it: identical submissions dedupe here, sharing the run, its artifact,
// and its event log. In a fleet, the canonical hash is also the content
// address other workers' executions of the same spec resolve to on disk.
type execution struct {
	canonical string
	hash      string // canonHash(canonical)
	spec      Spec

	mu       sync.Mutex
	state    Status
	events   []Event
	notify   chan struct{} // closed and renewed on every append
	artifact []byte
	err      error
	cancel   context.CancelFunc
	attached int // jobs still wanting this run
	progress Progress

	rechecks int // deferred-retry count, guarded by Manager.mu
}

// append adds one event (and optional state change) under ex.mu and wakes
// streamers. state=="" keeps the current state.
func (ex *execution) append(state Status, ev Event) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	ex.appendLocked(state, ev)
}

func (ex *execution) appendLocked(state Status, ev Event) {
	if state != "" {
		ex.state = state
	}
	ev.Seq = int64(len(ex.events))
	ev.Progress = ex.progress
	ex.events = append(ex.events, ev)
	close(ex.notify)
	ex.notify = make(chan struct{})
}

// snapshot returns the events from seq on, whether the execution is
// terminal, and a channel that closes when anything new arrives.
func (ex *execution) snapshot(from int64) ([]Event, bool, <-chan struct{}) {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	var evs []Event
	if from < int64(len(ex.events)) {
		evs = append(evs, ex.events[from:]...)
	}
	return evs, ex.state.terminal(), ex.notify
}

// Job is one submission. Distinct submissions are distinct jobs even when
// they dedupe onto a shared execution.
type Job struct {
	id       string
	ex       *execution
	deduped  bool
	canceled bool // job-level cancel; the execution may outlive it
	created  time.Time
}

// Config tunes a Manager.
type Config struct {
	// QueueDepth bounds the FIFO of executions waiting for a worker
	// (default 64). A submission arriving with the queue full is shed.
	QueueDepth int
	// Workers is how many executions run concurrently (default 2).
	Workers int
	// Parallel is the global sweep budget shared by all running
	// executions — the server-side -parallel (default
	// sweep.DefaultParallel()).
	Parallel int
	// JobTimeout, when positive, deadlines every execution.
	JobTimeout time.Duration
	// StateDir, when set, makes the manager crash-safe: job records,
	// completed campaign cells, fault runs' park records and finished
	// artifacts persist there, and a restarted manager rescans the
	// directory — completed executions come back served from cache,
	// interrupted ones re-enqueue and re-execute, producing artifacts
	// byte-identical to an uninterrupted run (see state.go for the
	// layout). Several worker processes may share one StateDir: the lease
	// layer (lease.go) arbitrates ownership per execution, finished
	// artifacts dedupe fleet-wide by canonical spec hash, and a job whose
	// owner dies is taken over by a peer within one LeaseTTL.
	StateDir string
	// WorkerID names this process in a shared StateDir (default "w0").
	// Fleet members must use distinct ids: job ids are scoped per worker
	// and lease ownership is attributed by it.
	WorkerID string
	// LeaseTTL is how long a lease stays fresh without renewal (default
	// 5s; only with StateDir). A peer steals an expired lease and
	// re-executes the run, checking it against the parked state.
	LeaseTTL time.Duration
	// PoisonAfter quarantines a spec once this many owners died mid-run
	// holding its lease (default 3; only with StateDir). 0 keeps the
	// default; negative disables quarantine.
	PoisonAfter int
	// FailpointHash/FailpointCycle, when set, kill the process (os.Exit 3)
	// the first time the execution with that canonical hash reports
	// progress at or past the given cycle — the deterministic owner-death
	// hook the chaos harness uses. See cliutil.ParseFailpoint for the
	// MDXSERVE_FAILPOINT=<hash>@<cycle> form.
	FailpointHash  string
	FailpointCycle int64
}

func (c *Config) normalize() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Parallel <= 0 {
		c.Parallel = sweep.DefaultParallel()
	}
	if c.WorkerID == "" {
		c.WorkerID = "w0"
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 5 * time.Second
	}
	if c.PoisonAfter == 0 {
		c.PoisonAfter = 3
	} else if c.PoisonAfter < 0 {
		c.PoisonAfter = 0 // disabled
	}
}

// Manager owns the queue, the worker pool, the dedupe/result cache, and
// every job's event stream.
type Manager struct {
	cfg    Config
	budget *sweep.Limiter
	state  *stateStore // nil without Config.StateDir

	baseCtx    context.Context
	baseCancel context.CancelFunc
	workerWG   sync.WaitGroup

	mu       sync.Mutex
	qcond    *sync.Cond   // signals qlist growth and qclosed
	qlist    []*execution // FIFO of executions awaiting a worker
	qclosed  bool         // no further dequeues/enqueues
	draining bool
	degraded bool  // sticky: state dir lost, local-queue-only mode
	degErr   error // what demoted us
	killed   bool  // chaos: simulate abrupt process death
	seq      int64
	jobs     map[string]*Job
	byCanon  map[string]*execution

	leasesHeld int       // running executions this process owns a lease for
	lastRenew  time.Time // most recent successful lease renewal
	drainRing  []time.Time

	// Metrics, all guarded by mu except where noted.
	started       time.Time
	submitted     int64
	dedupHits     int64
	executions    int64
	queuedCount   int64
	running       int64
	done          int64
	failed        int64
	canceledEx    int64
	adopted       int64
	stolen        int64
	deferred      int64
	poisonedCount int64
	leaseLost     int64
	total         Progress
	durations     stats.Latency
}

// drainRingCap bounds the recent-completion timestamp ring that feeds the
// adaptive Retry-After hint.
const drainRingCap = 32

// NewManager starts the worker pool and returns a ready manager. It cannot
// fail when Config.StateDir is unset; with one set, use OpenManager to see
// the error instead of panicking.
func NewManager(cfg Config) *Manager {
	m, err := OpenManager(cfg)
	if err != nil {
		panic(fmt.Sprintf("jobs: %v", err))
	}
	return m
}

// OpenManager starts the worker pool, rescanning and resuming persisted
// state first when Config.StateDir is set.
func OpenManager(cfg Config) (*Manager, error) {
	cfg.normalize()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		budget:     sweep.NewLimiter(cfg.Parallel),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*Job{},
		byCanon:    map[string]*execution{},
		started:    time.Now(),
	}
	m.qcond = sync.NewCond(&m.mu)
	if cfg.StateDir != "" {
		st, err := openStateStore(cfg.StateDir, cfg.WorkerID)
		if err != nil {
			cancel()
			return nil, err
		}
		m.state = st
		pending, err := m.resume()
		if err != nil {
			cancel()
			return nil, err
		}
		// Resumed executions enqueue regardless of the configured depth:
		// they were admitted once already.
		m.qlist = pending
		m.queuedCount = int64(len(pending))
	}
	m.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m, nil
}

// resume rebuilds executions and jobs from the state directory: completed
// executions come back terminal (resubmissions dedupe onto the cached
// artifact), quarantined ones come back failed with the classified error,
// interrupted ones are returned for re-enqueueing — they re-execute once
// this worker wins the lease, or adopt a peer's artifact if the peer
// finishes first.
func (m *Manager) resume() ([]*execution, error) {
	execs, jobRecs, err := m.state.rescan(m.cfg.LeaseTTL)
	if err != nil {
		return nil, err
	}
	var pending []*execution
	for _, re := range execs {
		spec, err := DecodeSpec([]byte(re.canonical))
		if err != nil {
			// The spec no longer parses (e.g. an experiment id was retired);
			// drop the state rather than refuse to boot.
			m.state.removeExec(re.hash)
			continue
		}
		ex := &execution{
			canonical: re.canonical,
			hash:      re.hash,
			spec:      spec,
			state:     StatusQueued,
			notify:    make(chan struct{}),
		}
		ex.append(StatusQueued, Event{Type: "queued"})
		m.byCanon[re.canonical] = ex
		m.executions++
		switch {
		case re.artifact != nil:
			ex.artifact = re.artifact
			ex.append(StatusDone, Event{Type: "done"})
			m.done++
		case re.poisoned != nil:
			ex.err = fmt.Errorf("%w: %s", ErrPoisoned, re.poisoned.Error)
			ex.append(StatusFailed, Event{Type: "failed", Error: re.poisoned.Error})
			m.failed++
			m.poisonedCount++
		default:
			pending = append(pending, ex)
		}
	}
	for _, jr := range jobRecs {
		ex := m.byCanon[jr.canonical]
		if ex == nil {
			continue
		}
		ex.mu.Lock()
		ex.attached++
		ex.mu.Unlock()
		m.jobs[jr.id] = &Job{id: jr.id, ex: ex, created: time.Now()}
		var n int64
		if _, err := fmt.Sscanf(jr.id, "j%06d", &n); err == nil && n > m.seq {
			m.seq = n
		}
	}
	return pending, nil
}

// healthyStateLocked is the persistence gate: the store while it works,
// nil once the process has demoted itself to local-queue-only mode.
// Callers hold m.mu.
func (m *Manager) healthyStateLocked() *stateStore {
	if m.state == nil || m.degraded {
		return nil
	}
	return m.state
}

func (m *Manager) healthyState() *stateStore {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.healthyStateLocked()
}

// degrade demotes the manager to local-queue-only mode after a state-dir
// I/O failure (ENOSPC, unmounted volume). Sticky: the in-memory queue
// keeps serving, persistence and fleet coordination stop, and /readyz
// reports the loss until the operator restarts the worker.
func (m *Manager) degrade(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.degraded {
		m.degraded = true
		m.degErr = err
	}
}

// Degraded reports local-queue-only mode and what caused it.
func (m *Manager) Degraded() (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.degraded, m.degErr
}

// noteRenew records a successful lease renewal for the readiness probe.
func (m *Manager) noteRenew() {
	m.mu.Lock()
	m.lastRenew = time.Now()
	m.mu.Unlock()
}

func (m *Manager) isKilled() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.killed
}

// enqueueLocked appends to the run queue and wakes one worker. Callers
// hold m.mu.
func (m *Manager) enqueueLocked(ex *execution) {
	m.qlist = append(m.qlist, ex)
	m.qcond.Signal()
}

// dequeue blocks until an execution is available or the queue is closed.
// A closed queue still drains its remaining items (Drain semantics);
// a killed manager abandons them (Kill semantics).
func (m *Manager) dequeue() (*execution, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.qlist) == 0 && !m.qclosed {
		m.qcond.Wait()
	}
	if m.killed || len(m.qlist) == 0 {
		return nil, false
	}
	ex := m.qlist[0]
	m.qlist = m.qlist[1:]
	return ex, true
}

// CanonicalHash normalizes a spec and returns its canonical content hash —
// the execution's address in a shared state directory. The chaos harness
// uses it to aim failpoints.
func CanonicalHash(spec Spec) (string, error) {
	spec = spec.Clone()
	if err := spec.Normalize(); err != nil {
		return "", err
	}
	return canonHash(spec.Canonical()), nil
}

// Submit validates, normalizes, and enqueues a spec, returning the new job
// id. Identical canonical specs dedupe: the job attaches to the live or
// completed execution instead of queueing a duplicate run (deduped=true).
func (m *Manager) Submit(spec Spec) (id string, deduped bool, err error) {
	spec = spec.Clone() // normalize a private copy, never the caller's memory
	if err := spec.Normalize(); err != nil {
		return "", false, err
	}
	canonical := spec.Canonical()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return "", false, ErrDraining
	}
	m.submitted++
	ex := m.byCanon[canonical]
	if ex != nil {
		deduped = true
		m.dedupHits++
	} else {
		if m.queuedCount >= int64(m.cfg.QueueDepth) {
			m.submitted--
			return "", false, ErrQueueFull
		}
		ex = &execution{
			canonical: canonical,
			hash:      canonHash(canonical),
			spec:      spec,
			state:     StatusQueued,
			notify:    make(chan struct{}),
		}
		ex.append(StatusQueued, Event{Type: "queued"})
		m.byCanon[canonical] = ex
		m.executions++
		m.queuedCount++
		if st := m.healthyStateLocked(); st != nil {
			if err := st.saveExecSpec(ex.hash, canonical); err != nil {
				// Losing the state dir is not fatal to the submission: demote
				// to local-queue-only mode and run the job in memory.
				m.degraded = true
				m.degErr = err
			}
		}
		m.enqueueLocked(ex)
	}
	ex.mu.Lock()
	ex.attached++
	ex.mu.Unlock()

	m.seq++
	id = fmt.Sprintf("j%06d", m.seq)
	m.jobs[id] = &Job{id: id, ex: ex, deduped: deduped, created: time.Now()}
	if st := m.healthyStateLocked(); st != nil {
		// Best-effort: the job runs either way; a lost record only costs
		// the client its id after a restart.
		_ = st.saveJob(id, canonical)
	}
	return id, deduped, nil
}

func (m *Manager) worker() {
	defer m.workerWG.Done()
	for {
		ex, ok := m.dequeue()
		if !ok {
			return
		}
		m.runExecution(ex)
	}
}

// retryDelay is the deterministic backoff cadence for deferred executions
// (a live peer holds the lease): half the TTL, doubling per recheck,
// capped at one TTL so a dead owner's work is taken over within one
// lease-expiry interval of the lease going stale. No jitter — fleet
// behavior replays identically run to run.
func (m *Manager) retryDelay(rechecks int) time.Duration {
	d := m.cfg.LeaseTTL / 2
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	for i := 0; i < rechecks && d < m.cfg.LeaseTTL; i++ {
		d *= 2
	}
	if d > m.cfg.LeaseTTL {
		d = m.cfg.LeaseTTL
	}
	return d
}

// scheduleRecheck re-enqueues a deferred execution after its backoff.
func (m *Manager) scheduleRecheck(ex *execution, delay time.Duration) {
	time.AfterFunc(delay, func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.qclosed {
			// Shutting down: the execution stays parked on disk and the next
			// boot (or a peer) picks it up.
			m.queuedCount--
			return
		}
		m.enqueueLocked(ex)
	})
}

// deferExec parks an execution whose lease a live peer holds: it stays
// queued and rechecks on the deterministic backoff cadence — adopting the
// peer's artifact when it finishes, or stealing the lease if it dies.
func (m *Manager) deferExec(ex *execution) {
	m.mu.Lock()
	m.queuedCount++
	m.deferred++
	ex.rechecks++
	delay := m.retryDelay(ex.rechecks - 1)
	m.mu.Unlock()
	m.scheduleRecheck(ex, delay)
}

// finishAdopted completes an execution with a peer's artifact — the
// fleet-wide content-addressed cache hit.
func (m *Manager) finishAdopted(ex *execution, artifact []byte) {
	ex.mu.Lock()
	if ex.state.terminal() {
		ex.mu.Unlock()
		return
	}
	ex.artifact = artifact
	ex.appendLocked(StatusDone, Event{Type: "done"})
	ex.mu.Unlock()
	m.mu.Lock()
	m.done++
	m.adopted++
	m.noteDrainLocked(time.Now())
	m.mu.Unlock()
}

// finishPoisoned completes an execution as a classified quarantine
// failure. The canonical mapping is kept: resubmissions dedupe onto the
// quarantine verdict instead of re-running the poison.
func (m *Manager) finishPoisoned(ex *execution, msg string) {
	ex.mu.Lock()
	if ex.state.terminal() {
		ex.mu.Unlock()
		return
	}
	ex.err = fmt.Errorf("%w: %s", ErrPoisoned, msg)
	ex.appendLocked(StatusFailed, Event{Type: "failed", Error: msg})
	ex.mu.Unlock()
	m.mu.Lock()
	m.failed++
	m.poisonedCount++
	m.mu.Unlock()
}

// noteDrainLocked records one execution completion for the adaptive
// Retry-After hint. Callers hold m.mu.
func (m *Manager) noteDrainLocked(t time.Time) {
	m.drainRing = append(m.drainRing, t)
	if len(m.drainRing) > drainRingCap {
		m.drainRing = m.drainRing[len(m.drainRing)-drainRingCap:]
	}
}

// drainTimes snapshots the recent-completion ring (oldest first).
func (m *Manager) drainTimes() []time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]time.Time, len(m.drainRing))
	copy(out, m.drainRing)
	return out
}

func (m *Manager) runExecution(ex *execution) {
	m.mu.Lock()
	m.queuedCount--
	killed := m.killed
	m.mu.Unlock()
	if killed {
		return
	}

	ex.mu.Lock()
	if ex.state == StatusCanceled {
		// Every attached job canceled while it sat in the queue.
		ex.mu.Unlock()
		return
	}
	ex.mu.Unlock()

	// Fleet arbitration: adopt a finished peer's artifact, honor a
	// quarantine, defer to a live owner, or win (possibly steal) the lease.
	st := m.healthyState()
	var leaseEpoch int64
	owned := false
	if st != nil {
		res, err := st.acquire(ex.hash, m.cfg.WorkerID, m.cfg.LeaseTTL, m.cfg.PoisonAfter)
		if err != nil {
			m.degrade(err)
			st = nil
		} else {
			switch res.kind {
			case acqAdopt:
				m.finishAdopted(ex, res.artifact)
				return
			case acqPoisoned:
				m.finishPoisoned(ex, res.poison)
				return
			case acqHeld:
				m.deferExec(ex)
				return
			case acqOwned:
				owned = true
				leaseEpoch = res.epoch
				m.noteRenew()
				m.mu.Lock()
				m.leasesHeld++
				if res.stolen {
					m.stolen++
				}
				m.mu.Unlock()
			}
		}
	}

	ctx := m.baseCtx
	var cancel context.CancelFunc
	if m.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, m.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	ex.mu.Lock()
	ex.cancel = cancel
	// Every attempt runs from cycle 0 and reports its progress afresh, so
	// the counts restart with it and end equal to an uninterrupted run's.
	ex.progress = Progress{}
	ex.appendLocked(StatusRunning, Event{Type: "started"})
	ex.mu.Unlock()

	m.mu.Lock()
	m.running++
	m.mu.Unlock()

	// Heartbeat keeper: renew the lease on a fixed cadence so peers see a
	// live owner even through progress-silent stretches. Losing the lease
	// (a peer judged us dead and stole it) cancels the run.
	var lost atomic.Bool
	var hbStop chan struct{}
	var hbDone chan struct{}
	if owned {
		hbStop, hbDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(hbDone)
			tick := time.NewTicker(m.cfg.LeaseTTL / 3)
			defer tick.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-tick.C:
					if m.isKilled() {
						return
					}
					switch err := st.renewLease(ex.hash, m.cfg.WorkerID, leaseEpoch); {
					case errors.Is(err, errLeaseLost):
						lost.Store(true)
						cancel()
						return
					case err == nil:
						m.noteRenew()
					}
				}
			}
		}()
	}

	start := time.Now()
	var lastEmit, lastLeaseRenew time.Time
	progress := func(d Progress) {
		ex.mu.Lock()
		ex.progress.add(d)
		cycles := ex.progress.Cycles
		switch {
		case d.Recoveries > 0:
			// Recovery events are rare and diagnostic — emit unthrottled so
			// a stream consumer sees every liveness intervention.
			ex.appendLocked("", Event{Type: "recovery"})
		case d.Reconfigured > 0 || d.ReconfigFellBack > 0:
			// Reconfigurations likewise: every swap, drain or fallback is an
			// event of its own.
			ex.appendLocked("", Event{Type: "reconfig"})
		case time.Since(lastEmit) >= 50*time.Millisecond:
			// Throttle the stream: at most one progress event per 50ms keeps
			// event logs bounded for big campaigns while staying live.
			lastEmit = time.Now()
			ex.appendLocked("", Event{Type: "progress"})
		}
		// Progress arrives from every sweep worker at once; the renewal
		// throttle is decided under the execution's lock like the event one.
		renew := owned && time.Since(lastLeaseRenew) >= m.cfg.LeaseTTL/4
		if renew {
			lastLeaseRenew = time.Now()
		}
		ex.mu.Unlock()
		if m.cfg.FailpointHash == ex.hash && cycles >= m.cfg.FailpointCycle {
			// Deterministic owner death for the chaos harness: no park, no
			// release — indistinguishable from SIGKILL to the fleet.
			os.Exit(3)
		}
		if renew {
			// Renew per progress event (throttled): an active owner's lease
			// stays fresh without waiting on the keeper tick.
			switch err := st.renewLease(ex.hash, m.cfg.WorkerID, leaseEpoch); {
			case errors.Is(err, errLeaseLost):
				lost.Store(true)
				cancel()
			case err == nil:
				m.noteRenew()
			}
		}
		m.mu.Lock()
		m.total.add(d)
		m.mu.Unlock()
	}

	var es *execState
	if st != nil {
		es = &execState{store: st, hash: ex.hash, killed: m.isKilled}
	}
	artifact, err := runSpec(ctx, ex.spec, m.budget, m.cfg.Parallel, progress, es)
	elapsed := time.Since(start)

	if hbStop != nil {
		close(hbStop)
		<-hbDone // no renewal may land after the release below
	}
	if m.isKilled() {
		// Simulated abrupt death: no release, no bookkeeping, no events —
		// exactly what a SIGKILLed process leaves behind.
		return
	}
	if owned {
		m.mu.Lock()
		m.leasesHeld--
		m.mu.Unlock()
	}

	canceledErr := err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	if lost.Load() && canceledErr && !m.Draining() {
		// A peer stole the lease and owns the run now. Hand the execution
		// back to the queue: the recheck will adopt the peer's artifact, or
		// steal back if the peer dies too.
		ex.mu.Lock()
		ex.cancel = nil
		ex.appendLocked(StatusQueued, Event{Type: "requeued"})
		ex.mu.Unlock()
		m.mu.Lock()
		m.running--
		m.leaseLost++
		m.mu.Unlock()
		m.deferExec(ex)
		return
	}

	var final Status
	var ev Event
	switch {
	case canceledErr:
		final, ev = StatusCanceled, Event{Type: "canceled", Error: err.Error()}
	case err != nil:
		final, ev = StatusFailed, Event{Type: "failed", Error: err.Error()}
	default:
		final, ev = StatusDone, Event{Type: "done"}
	}
	if st != nil {
		switch final {
		case StatusDone:
			// Persisting the artifact marks the execution done fleet-wide; a
			// crash before the rename re-runs it instead.
			if perr := st.saveArtifact(ex.hash, artifact); perr != nil {
				final, ev = StatusFailed, Event{Type: "failed", Error: perr.Error()}
				err = perr
				st.removeExec(ex.hash)
			} else if owned {
				_ = st.releaseLease(ex.hash, m.cfg.WorkerID, leaseEpoch)
			}
		case StatusFailed:
			// Failures are not cached (below) and their state would only
			// replay the failure; discard it.
			st.removeExec(ex.hash)
		case StatusCanceled:
			// Keep the park record and completed cells: a canceled (or
			// SIGTERM-interrupted) execution resumes on the next boot — or on
			// a peer, which the clean release lets claim it without counting
			// a death.
			if owned {
				_ = st.releaseLease(ex.hash, m.cfg.WorkerID, leaseEpoch)
			}
		}
	}

	ex.mu.Lock()
	ex.artifact = artifact
	ex.err = err
	ex.cancel = nil
	ex.appendLocked(final, ev)
	ex.mu.Unlock()

	m.mu.Lock()
	m.running--
	m.durations.Add(elapsed.Milliseconds())
	switch final {
	case StatusDone:
		m.done++
		m.noteDrainLocked(time.Now())
	case StatusFailed:
		m.failed++
		// Failures are not cached: a resubmission gets a fresh run.
		delete(m.byCanon, ex.canonical)
	case StatusCanceled:
		m.canceledEx++
		delete(m.byCanon, ex.canonical)
	}
	m.mu.Unlock()
}

// Cancel cancels one job. If it was the execution's last interested job,
// the execution itself is canceled: dequeued if still queued, or its
// context canceled mid-run (the worker is freed at the next cell/cycle
// boundary).
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	job, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrNotFound
	}
	if job.canceled {
		m.mu.Unlock()
		return nil
	}
	job.canceled = true
	ex := job.ex
	m.mu.Unlock()

	ex.mu.Lock()
	ex.attached--
	if ex.attached > 0 || ex.state.terminal() {
		ex.mu.Unlock()
		return nil
	}
	if ex.state == StatusQueued {
		// The worker that eventually dequeues it will skip it (and account
		// for the freed queue slot then).
		ex.appendLocked(StatusCanceled, Event{Type: "canceled"})
		ex.mu.Unlock()
		m.mu.Lock()
		m.canceledEx++
		delete(m.byCanon, ex.canonical)
		m.mu.Unlock()
		return nil
	}
	cancel := ex.cancel
	ex.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return nil
}

// JobView is the API projection of one job.
type JobView struct {
	ID      string `json:"id"`
	Status  Status `json:"status"`
	Kind    Kind   `json:"kind"`
	Deduped bool   `json:"deduped,omitempty"`
	// Progress is the execution's tally.
	Progress
	// ArtifactBytes is the artifact length once the job is terminal.
	ArtifactBytes int    `json:"artifact_bytes,omitempty"`
	Error         string `json:"error,omitempty"`
}

// status resolves the job-level status (a canceled job stays canceled even
// if its shared execution runs on for other jobs).
func (m *Manager) status(job *Job) Status {
	if job.canceled {
		return StatusCanceled
	}
	job.ex.mu.Lock()
	defer job.ex.mu.Unlock()
	return job.ex.state
}

// Lookup returns the API view of one job.
func (m *Manager) Lookup(id string) (JobView, error) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobView{}, ErrNotFound
	}
	v := JobView{ID: id, Kind: job.ex.spec.Kind, Deduped: job.deduped, Status: m.status(job)}
	ex := job.ex
	ex.mu.Lock()
	v.Progress = ex.progress
	v.ArtifactBytes = len(ex.artifact)
	if ex.err != nil {
		v.Error = ex.err.Error()
	}
	ex.mu.Unlock()
	return v, nil
}

// Artifact returns the job's report artifact. ok is false until the
// execution reaches a terminal state that produced bytes.
func (m *Manager) Artifact(id string) (artifact []byte, ok bool, err error) {
	m.mu.Lock()
	job, exists := m.jobs[id]
	m.mu.Unlock()
	if !exists {
		return nil, false, ErrNotFound
	}
	ex := job.ex
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if !ex.state.terminal() || len(ex.artifact) == 0 {
		return nil, false, nil
	}
	return ex.artifact, true, nil
}

// Events exposes a job's stream for the HTTP layer: events from seq on,
// terminality, and a wakeup channel. A canceled job's stream is terminal
// even while the shared execution runs for other jobs.
func (m *Manager) Events(id string, from int64) ([]Event, bool, <-chan struct{}, error) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	canceled := ok && job.canceled
	m.mu.Unlock()
	if !ok {
		return nil, false, nil, ErrNotFound
	}
	evs, terminal, notify := job.ex.snapshot(from)
	return evs, terminal || canceled, notify, nil
}

// JobCanceled reports whether the job itself (not its execution) was
// canceled.
func (m *Manager) JobCanceled(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	return ok && job.canceled
}

// Drain stops accepting submissions, lets queued and running executions
// finish, and returns when the pool is idle. Safe to call more than once.
// Executions deferred on a peer's lease are abandoned to the fleet: they
// stay parked on disk for the peer (or the next boot) to finish.
func (m *Manager) Drain() {
	m.mu.Lock()
	m.draining = true
	m.qclosed = true
	m.qcond.Broadcast()
	m.mu.Unlock()
	m.workerWG.Wait()
}

// Stop aborts: running executions are canceled, then the pool drains. For
// tests and fatal shutdown paths.
func (m *Manager) Stop() {
	m.baseCancel()
	m.Drain()
}

// Kill simulates SIGKILL inside one process for tests: workers abandon
// their executions mid-run with no final park, no lease release, and
// no terminal events — the on-disk state is exactly what an abruptly dead
// owner leaves for its peers to steal.
func (m *Manager) Kill() {
	m.mu.Lock()
	m.killed = true
	m.draining = true
	m.qclosed = true
	m.qcond.Broadcast()
	m.mu.Unlock()
	m.baseCancel()
	m.workerWG.Wait()
}

// Draining reports whether the manager refuses new submissions.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Readiness decides the /readyz verdict: ready means this worker can
// accept and durably run a stateful submission right now. Not-ready
// reasons: draining, degraded (state dir lost), state dir not writable
// (probed live — and demoting to degraded on failure), queue full, or
// lease renewal gone stale while owning running executions.
func (m *Manager) Readiness() (bool, []string) {
	var reasons []string
	m.mu.Lock()
	draining := m.draining
	degraded := m.degraded
	degErr := m.degErr
	queued := m.queuedCount
	depth := int64(m.cfg.QueueDepth)
	held := m.leasesHeld
	last := m.lastRenew
	st := m.healthyStateLocked()
	m.mu.Unlock()

	if draining {
		reasons = append(reasons, "draining")
	}
	switch {
	case degraded:
		reasons = append(reasons, fmt.Sprintf("degraded to local-queue-only: %v", degErr))
	case st != nil:
		if err := st.probe(); err != nil {
			m.degrade(err)
			reasons = append(reasons, fmt.Sprintf("state dir not writable: %v", err))
		}
	}
	if queued >= depth {
		reasons = append(reasons, "queue full")
	}
	if held > 0 && time.Since(last) > m.cfg.LeaseTTL {
		reasons = append(reasons, "lease renewal stale")
	}
	return len(reasons) == 0, reasons
}

// Metrics is the /metrics payload.
type Metrics struct {
	Worker     string `json:"worker"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	Workers    int    `json:"workers"`
	Parallel   int    `json:"parallel"`
	// Degraded reports sticky local-queue-only mode (state dir lost).
	Degraded bool `json:"degraded,omitempty"`

	Submitted   int64 `json:"jobs_submitted"`
	Deduped     int64 `json:"jobs_deduped"`
	Executions  int64 `json:"executions"`
	Running     int64 `json:"running"`
	Queued      int64 `json:"queued"`
	Done        int64 `json:"done"`
	Failed      int64 `json:"failed"`
	CanceledExs int64 `json:"canceled"`

	// Fleet coordination counters (only move with a shared state dir):
	// Adopted counts executions finished with a peer's cached artifact,
	// StolenLeases the expired leases this worker took over, Deferred the
	// times an execution waited out a live peer's lease, Poisoned the
	// quarantine verdicts served, LeaseLost the runs handed over after a
	// peer stole this worker's lease.
	Adopted      int64 `json:"adopted,omitempty"`
	StolenLeases int64 `json:"stolen_leases,omitempty"`
	Deferred     int64 `json:"deferred,omitempty"`
	Poisoned     int64 `json:"poisoned,omitempty"`
	LeaseLost    int64 `json:"lease_lost,omitempty"`

	// CacheHitRate is deduped submissions over all submissions.
	CacheHitRate float64 `json:"cache_hit_rate"`

	CellsDone    int64   `json:"cells_done"`
	CyclesDone   int64   `json:"cycles_done"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	// RecoveriesDone is the total deadlock recoveries taken by the liveness
	// layer across all executions since the manager started.
	RecoveriesDone int64 `json:"recoveries_done"`
	// ReconfiguredDone is the total committed online reconfigurations (hot
	// swaps plus bounded drains) across all executions since the manager
	// started; ReconfigDrainedDone the packets transition drains purged and
	// ReconfigFellBackDone the attempts that degraded to rebuild-in-place.
	ReconfiguredDone     int64 `json:"reconfigured_done"`
	ReconfigDrainedDone  int64 `json:"reconfig_drained_done"`
	ReconfigFellBackDone int64 `json:"reconfig_fellback_done"`

	// Job wall-clock duration summary (milliseconds), nearest-rank
	// percentiles via stats.Latency.
	DurationCount int     `json:"job_duration_count"`
	DurationMean  float64 `json:"job_duration_mean_ms"`
	DurationP50   int64   `json:"job_duration_p50_ms"`
	DurationP95   int64   `json:"job_duration_p95_ms"`
	DurationMax   int64   `json:"job_duration_max_ms"`
}

// Metrics snapshots the manager's counters.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	mt := Metrics{
		Worker:               m.cfg.WorkerID,
		QueueDepth:           int(m.queuedCount),
		QueueCap:             m.cfg.QueueDepth,
		Workers:              m.cfg.Workers,
		Parallel:             m.cfg.Parallel,
		Degraded:             m.degraded,
		Submitted:            m.submitted,
		Deduped:              m.dedupHits,
		Executions:           m.executions,
		Running:              m.running,
		Queued:               m.queuedCount,
		Done:                 m.done,
		Failed:               m.failed,
		CanceledExs:          m.canceledEx,
		Adopted:              m.adopted,
		StolenLeases:         m.stolen,
		Deferred:             m.deferred,
		Poisoned:             m.poisonedCount,
		LeaseLost:            m.leaseLost,
		CellsDone:            m.total.Cells,
		CyclesDone:           m.total.Cycles,
		RecoveriesDone:       m.total.Recoveries,
		ReconfiguredDone:     m.total.Reconfigured,
		ReconfigDrainedDone:  m.total.ReconfigDrained,
		ReconfigFellBackDone: m.total.ReconfigFellBack,
	}
	if m.submitted > 0 {
		mt.CacheHitRate = float64(m.dedupHits) / float64(m.submitted)
	}
	if secs := time.Since(m.started).Seconds(); secs > 0 {
		mt.CyclesPerSec = float64(m.total.Cycles) / secs
	}
	mt.DurationCount = m.durations.Count()
	if mt.DurationCount > 0 {
		mt.DurationMean = m.durations.Mean()
		mt.DurationP50 = m.durations.Percentile(50)
		mt.DurationP95 = m.durations.Percentile(95)
		mt.DurationMax = m.durations.Max()
	}
	return mt
}
