package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sync"
	"syscall"
	"time"

	"sr2201/internal/campaign"
	"sr2201/internal/cliutil"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
)

// serveWorkload drives a real mdxserve child over loopback with closed-loop
// keep-alive clients. An op is submit → stream events to the terminal one →
// fetch the artifact.
type serveWorkload struct {
	name      string
	clients   int // closed-loop clients, each with its own connection
	warmupOps int // ops run during set-up, before the restart
	// Per block of 20 ops: campaigns on campaignShape, single-fault runs
	// with online reconfiguration on faultShape, and exact resubmissions of
	// an earlier op (the dedupe-hit path). The rest of 20 are resubmissions.
	campaignsPer20 int
	faultsPer20    int
	campaignShape  geom.Shape
	faultShape     geom.Shape
	// A job sends this many waves of its pattern, gap cycles apart.
	campaignWaves int
	faultWaves    int
	verifyEvery   int // one artifact in n is recomputed in-process
	ladderSpecs   int // specs of each class the traced ladder runs per rung
}

// Each miss class costs the same from spec to spec (a 24-cell 4x4 campaign
// at about 32 ms, and a 6x6 run reconfigured with packets in flight at about
// 45 ms), so that with a quarter of the ops hits the median op lies inside
// the campaign class and p75 inside the fault class, not on a boundary
// between classes.
//
// A campaign cell sends 8 waves, not the 4 of a fault run: a campaign
// execution creates 31 small files in the state directory, and at 4 waves
// (22 ms) what the file system took for them moved the class, and with it
// p50, between 21 and 32 ms from run to run (20-24 ms on tmpfs, 28-29 ms on
// the box's virtual disk, measured interleaved). At 8 waves the simulation
// is the larger part and the same comparison differs by 7 %.
//
// One client, not one per core: the child already keeps more than one of the
// box's two hardware threads busy (a worker plus its garbage collector), and
// with two clients every number swung by a quarter between sets of runs of
// the same code; with one the service is never saturated and an op's
// latency is its service time.
var serveMixed = serveWorkload{
	name:    "serve-mixed",
	clients: 1, warmupOps: 60,
	campaignsPer20: 8, faultsPer20: 7,
	campaignShape: geom.MustShape(4, 4), faultShape: geom.MustShape(6, 6),
	campaignWaves: 8, faultWaves: 4,
	verifyEvery: 25, ladderSpecs: 12,
}

type jobClass int

const (
	classCampaign jobClass = iota
	classFault
	classResubmit
)

// jobSpec is one generated submission, in a form that renders both as the
// service's JSON and as the in-process campaign call it must equal.
type jobSpec struct {
	class  jobClass
	shape  geom.Shape
	epoch  int64 // fault activation cycle
	shift  int   // traffic pattern shift+K
	waves  int   // waves of the pattern
	gap    int64 // cycles between waves
	router geom.Coord
}

// jobHorizon is the cycle limit of every job; none comes near it.
const jobHorizon = 50_000

func (s jobSpec) pattern() string { return fmt.Sprintf("shift+%d", s.shift) }

func (s jobSpec) fail() string {
	return fmt.Sprintf("rtc:%d,%d@%d", s.router[0], s.router[1], s.epoch)
}

// body renders the submission. Every field the runs depend on is spelled
// out, so the service's defaults play no part.
func (s jobSpec) body() []byte {
	var v any
	if s.class == classCampaign {
		v = map[string]any{"kind": "campaign", "campaign": map[string]any{
			"shape": s.shape.String(), "epochs": []int64{s.epoch}, "patterns": []string{s.pattern()},
			"waves": s.waves, "gap": s.gap, "horizon": jobHorizon,
		}}
	} else {
		v = map[string]any{"kind": "fault", "fault": map[string]any{
			"shape": s.shape.String(), "fails": []string{s.fail()}, "pattern": s.pattern(),
			"waves": s.waves, "gap": s.gap, "horizon": jobHorizon,
			"reconfig": map[string]any{"mode": "fault"},
		}}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings and numbers always marshal
	}
	return b
}

// campaignConfig is the in-process equivalent of a campaign submission.
func (s jobSpec) campaignConfig() (campaign.Config, error) {
	pat, err := campaign.ParsePattern(s.pattern())
	if err != nil {
		return campaign.Config{}, err
	}
	return campaign.Config{
		Shape: s.shape, Epochs: []int64{s.epoch}, Patterns: []campaign.Pattern{pat},
		Waves: s.waves, Gap: s.gap, Horizon: jobHorizon, Parallel: 1,
	}, nil
}

// singleSpec is the in-process equivalent of a fault submission; reconfig
// selects online reconfiguration ("fault") or rebuild-in-place ("").
func (s jobSpec) singleSpec(reconfig string) (campaign.SingleSpec, error) {
	pat, err := campaign.ParsePattern(s.pattern())
	if err != nil {
		return campaign.SingleSpec{}, err
	}
	f, cycle, err := cliutil.ParseScheduledFault(s.fail(), s.shape)
	if err != nil {
		return campaign.SingleSpec{}, err
	}
	return campaign.SingleSpec{
		Shape: s.shape, Events: []inject.Event{{Cycle: cycle, Fault: f}}, Pattern: pat,
		Waves: s.waves, Gap: s.gap, Horizon: jobHorizon, Reconfig: reconfig,
	}, nil
}

// reference computes a submission's artifact in-process.
func (s jobSpec) reference() ([]byte, error) {
	if s.class == classCampaign {
		cfg, err := s.campaignConfig()
		if err != nil {
			return nil, err
		}
		res, err := campaign.Run(cfg)
		if err != nil {
			return nil, err
		}
		return []byte(res.String()), nil
	}
	spec, err := s.singleSpec("fault")
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := campaign.RunSingle(spec, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// plannedOp is one entry of the op schedule.
type plannedOp struct {
	spec   jobSpec
	class  jobClass // classResubmit when spec repeats an earlier op's
	origin int      // index of the op this one resubmits, else -1
}

// resubmitLag keeps a resubmission at least this many ops behind its
// original, so that the original has finished and the hit is a cache read.
const resubmitLag = 8

// planner generates the op schedule from the seed, one op at a time. Specs
// are drawn without replacement, so only a resubmission can hit the cache.
type planner struct {
	w      serveWorkload
	rng    *rand.Rand
	parity int64 // gap parity: keeps warm-up specs apart from timed ones
	seen   map[string]bool
	block  []jobClass
	ops    []plannedOp
	misses []int // indices of ops that were not resubmissions
}

func newPlanner(w serveWorkload, seed int64, parity int64) *planner {
	return &planner{w: w, rng: rand.New(rand.NewSource(seed)), parity: parity, seen: map[string]bool{}}
}

func (p *planner) fresh(class jobClass) jobSpec {
	for {
		s := jobSpec{class: class, shape: p.w.campaignShape, waves: p.w.campaignWaves}
		if class == classFault {
			s.shape, s.waves = p.w.faultShape, p.w.faultWaves
			s.router = s.shape.CoordOf(p.rng.Intn(s.shape.Size()))
		}
		s.shift = 1 + p.rng.Intn(s.shape.Size()-1)
		s.gap = 20 + 2*int64(p.rng.Intn(4)) + p.parity
		// The fault lands a few cycles after a wave other than the first
		// starts, so the network is busy when it does and the
		// reconfiguration has packets in flight to certify around. With the
		// epoch drawn freely, half the runs found the network idle and cost
		// half as much, and which half a seed drew moved every number.
		s.epoch = int64(1+p.rng.Intn(s.waves-1))*s.gap + 2 + int64(p.rng.Intn(8))
		key := string(s.body())
		if !p.seen[key] {
			p.seen[key] = true
			return s
		}
	}
}

// plan generates a schedule of n ops.
func (w serveWorkload) plan(seed, parity int64, n int) *planner {
	p := newPlanner(w, seed, parity)
	for len(p.ops) < n {
		p.next()
	}
	return p
}

// verified picks the ops whose artifacts the run recomputes in-process: in
// each window of verifyEvery ops the first miss of one class, the classes
// taking turns, so that every run verifies the same number of each.
func (p *planner) verified() []bool {
	keep := make([]bool, len(p.ops))
	for from := 0; from < len(p.ops); from += p.w.verifyEvery {
		class := jobClass(from / p.w.verifyEvery % 2)
		for i := from; i < min(from+p.w.verifyEvery, len(p.ops)); i++ {
			if p.ops[i].class == class {
				keep[i] = true
				break
			}
		}
	}
	return keep
}

// next appends the next op to the schedule and returns its index.
func (p *planner) next() int {
	if len(p.block) == 0 {
		for i := 0; i < 20; i++ {
			switch {
			case i < p.w.campaignsPer20:
				p.block = append(p.block, classCampaign)
			case i < p.w.campaignsPer20+p.w.faultsPer20:
				p.block = append(p.block, classFault)
			default:
				p.block = append(p.block, classResubmit)
			}
		}
		p.rng.Shuffle(len(p.block), func(i, j int) { p.block[i], p.block[j] = p.block[j], p.block[i] })
	}
	class := p.block[0]
	p.block = p.block[1:]
	i := len(p.ops)
	if class == classResubmit {
		// Eligible originals are the misses at least resubmitLag ops back.
		n := 0
		for n < len(p.misses) && p.misses[n] <= i-resubmitLag {
			n++
		}
		if n > 0 {
			origin := p.misses[p.rng.Intn(n)]
			p.ops = append(p.ops, plannedOp{spec: p.ops[origin].spec, class: classResubmit, origin: origin})
			return i
		}
		class = classCampaign // nothing to resubmit yet
	}
	p.ops = append(p.ops, plannedOp{spec: p.fresh(class), class: class, origin: -1})
	p.misses = append(p.misses, i)
	return i
}

// child is one running mdxserve process.
type child struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
	err  error // Wait's result, valid once done is closed
}

var bannerRE = regexp.MustCompile(`listening on (\S+) `)

// bannerLog copies the child's stderr to the log file and picks the
// listen address out of its banner line.
type bannerLog struct {
	f     *os.File
	head  []byte
	addr  chan string
	found bool
}

func (b *bannerLog) Write(p []byte) (int, error) {
	if !b.found {
		b.head = append(b.head, p...)
		if m := bannerRE.FindSubmatch(b.head); m != nil {
			b.found = true
			b.addr <- string(m[1])
		}
	}
	return b.f.Write(p)
}

// spawn starts mdxserve on a free loopback port over stateDir and waits
// until /readyz answers 200.
func spawn(bin, stateDir string, log *os.File, client *http.Client) (*child, error) {
	fmt.Fprintf(log, "--- spawn over %s\n", stateDir)
	bl := &bannerLog{f: log, addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2", "-parallel", "1", "-queue", "64", "-state-dir", stateDir)
	cmd.Stderr = bl
	// The child must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	go func() {
		c.err = cmd.Wait()
		close(c.done)
	}()
	select {
	case addr := <-bl.addr:
		c.base = "http://" + addr
	case <-c.done:
		return nil, fmt.Errorf("mdxserve exited before listening: %v", c.err)
	case <-time.After(20 * time.Second):
		c.kill()
		return nil, errors.New("mdxserve printed no listen address within 20 s")
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(c.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("mdxserve not ready within 20 s (last error: %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM and waits for the child to exit.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.kill()
		return err
	}
	select {
	case <-c.done:
		return c.err
	case <-time.After(30 * time.Second):
		c.kill()
		return errors.New("mdxserve did not exit within 30 s of SIGTERM")
	}
}

func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.done
}

// serverMetrics is the part of GET /metrics the benchmark reads.
type serverMetrics struct {
	Submitted  int64 `json:"jobs_submitted"`
	Deduped    int64 `json:"jobs_deduped"`
	Executions int64 `json:"executions"`
	CyclesDone int64 `json:"cycles_done"`
}

func fetchMetrics(client *http.Client, base string) (serverMetrics, error) {
	var m serverMetrics
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// opResult is what one op observed.
type opResult struct {
	deduped                 bool
	cycles                  int64 // simulated cycles the execution retired
	submit, wait, get, took time.Duration
	traced                  bool
	sum                     [sha256.Size]byte
	artifact                []byte // kept only for ops the run verifies in-process
	err                     error
}

// doOp runs one op against the server: submit, stream events to the
// terminal one, fetch the artifact.
func doOp(client *http.Client, base string, body []byte, tr *tracer, keep bool) (r opResult) {
	start := time.Now()
	tr.begin(spOp)
	defer func() {
		tr.end()
		r.took = time.Since(start)
		r.traced = tr.active()
	}()

	tr.begin(spSubmit)
	resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	var sub struct {
		ID      string `json:"id"`
		Deduped bool   `json:"deduped"`
	}
	if err == nil {
		if resp.StatusCode != http.StatusAccepted {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			err = fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(msg))
		} else {
			err = json.NewDecoder(resp.Body).Decode(&sub)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	tr.end()
	r.submit = time.Since(start)
	if err != nil {
		r.err = err
		return r
	}
	r.deduped = sub.Deduped

	t := time.Now()
	tr.begin(spWait)
	last, err := lastEvent(client, base+"/jobs/"+sub.ID+"/events")
	tr.end()
	r.wait = time.Since(t)
	if err != nil {
		r.err = err
		return r
	}
	if last.Type != "done" {
		r.err = fmt.Errorf("job %s ended %q: %s", sub.ID, last.Type, last.Error)
		return r
	}
	r.cycles = last.Cycles

	t = time.Now()
	tr.begin(spArtifactGet)
	resp, err = client.Get(base + "/jobs/" + sub.ID + "/artifact")
	var artifact []byte
	if err == nil {
		artifact, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET artifact of %s: %s", sub.ID, resp.Status)
		}
	}
	tr.end()
	r.get = time.Since(t)
	if err != nil {
		r.err = err
		return r
	}
	r.sum = sha256.Sum256(artifact)
	if keep {
		r.artifact = artifact
	}
	return r
}

// terminalEvent is the part of a job's last event the benchmark reads.
type terminalEvent struct {
	Type, Error string
	Cycles      int64
}

// lastEvent streams a job's events to the end and returns the terminal one.
func lastEvent(client *http.Client, url string) (ev terminalEvent, err error) {
	resp, err := client.Get(url)
	if err != nil {
		return ev, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ev, fmt.Errorf("GET events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	var line []byte
	for sc.Scan() {
		line = append(line[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		return ev, err
	}
	if len(line) == 0 {
		return ev, errors.New("empty event stream")
	}
	return ev, json.Unmarshal(line, &ev)
}

// serveRun is one set-up service: a restarted child over a state
// directory holding the warm-up's executions.
type serveRun struct {
	w        serveWorkload
	c        *child
	client   *http.Client
	stateDir string
}

func (s *serveRun) close() {
	if s.c != nil {
		s.c.stop()
	}
	s.client.CloseIdleConnections()
	os.RemoveAll(s.stateDir)
}

// drive runs the planned ops on the workload's clients, handing them out in
// schedule order; keep marks the ops whose artifacts are kept. A client runs
// the yardstick, if there is one, after each of its ops.
func (s *serveRun) drive(p *planner, tracers []*tracer, keep []bool, yard *yardstick) []opResult {
	var (
		mu      sync.Mutex
		next    int
		results = make([]opResult, len(p.ops))
		wg      sync.WaitGroup
	)
	for c := 0; c < s.w.clients; c++ {
		wg.Add(1)
		go func(tr *tracer) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(p.ops) {
					return
				}
				if tr != nil {
					tr.on = (i/blockOps)%2 == 0
					tr.op = i
				}
				results[i] = doOp(s.client, s.c.base, p.ops[i].spec.body(), tr, keep != nil && keep[i])
				if yard != nil {
					yard.run()
				}
			}
		}(tracers[c])
	}
	wg.Wait()
	return results
}

// setUp spawns the service, runs the warm-up ops, stops it with SIGTERM and
// spawns it again over the same state directory.
func (w serveWorkload) setUp(o options, n int, log *os.File, tr *tracer) (*serveRun, error) {
	tr.begin(spSetup)
	defer tr.end()
	dir, err := filepath.Abs(filepath.Join(o.outDir, fmt.Sprintf("state-%d-%d", os.Getpid(), n)))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &serveRun{w: w, stateDir: dir, client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: w.clients, MaxConnsPerHost: w.clients,
	}}}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	tr.begin(spSpawnReady)
	s.c, err = spawn(o.serve, dir, log, s.client)
	tr.end()
	if err != nil {
		return nil, err
	}

	tr.begin(spServeWarmup)
	res := s.drive(w.plan(o.seed, 1, w.warmupOps), make([]*tracer, w.clients), nil, nil)
	tr.end()
	for i, r := range res {
		if r.err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, r.err)
		}
	}

	tr.begin(spRestart)
	err = s.c.stop()
	s.c = nil
	s.client.CloseIdleConnections()
	if err == nil {
		s.c, err = spawn(o.serve, dir, log, s.client)
	}
	tr.end()
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	ok = true
	return s, nil
}

func runServe(w serveWorkload, o options) (*report, error) {
	if o.serve == "" {
		return nil, errors.New("serve-mixed needs -mdxserve <path of the mdxserve binary> (bench/run.sh builds and passes it)")
	}
	rep := newReport(w.name, o.seed, o.trace)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	log, err := os.Create(filepath.Join(o.outDir, "mdxserve-"+w.name+".stderr.log"))
	if err != nil {
		return nil, err
	}
	defer log.Close()

	start := time.Now()
	var tr *tracer
	tracers := make([]*tracer, w.clients)
	if o.trace {
		tr = newTracer(start)
		for i := range tracers {
			tracers[i] = newTracer(start)
		}
	}
	s, err := w.setUp(o, 0, log, tr)
	if err != nil {
		return nil, err
	}
	defer s.close()
	setups := []time.Duration{time.Since(start)}

	// Timed phase: a fixed schedule of ops.
	plan := w.plan(o.seed, 0, timedOps(o.seconds))
	keep := plan.verified()
	yard, err := newYardstick(len(plan.ops))
	if err != nil {
		return nil, err
	}
	defer yard.close()
	pid := s.c.cmd.Process.Pid
	m0, err := fetchMetrics(s.client, s.c.base)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	sampler, err := startRSSSampler(pid)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	results := s.drive(plan, tracers, keep, yard)
	// The clients run the yardstick between their ops, in this process: each
	// client's share of its time comes off the wall clock. The CPU time and
	// the resident set are the child's and hold none of it.
	wall := time.Since(t0) - yard.total/time.Duration(w.clients)
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	rss, err := sampler.meanMB()
	if err != nil {
		return nil, err
	}
	m1, err := fetchMetrics(s.client, s.c.base)
	if err != nil {
		return nil, err
	}

	// Output checks. An op fails at most once, whatever is wrong with it.
	ops := len(results)
	rep.attempted = ops
	fail := func(i int, format string, args ...any) {
		if results[i].err == nil {
			results[i].err = fmt.Errorf(format, args...)
		}
	}
	for i := range results {
		r := &results[i]
		if origin := plan.ops[i].origin; origin >= 0 && r.err == nil && results[origin].err == nil && results[origin].sum != r.sum {
			fail(i, "resubmits op %d but its artifact differs", origin)
		}
	}
	// The reference runs double as the workload's allocation count: the
	// child's heap cannot be read from outside, the same specs run
	// in-process can.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	verified := 0
	for i, r := range results {
		if r.artifact == nil {
			continue
		}
		want, err := plan.ops[i].spec.reference()
		if err != nil {
			return nil, fmt.Errorf("reference run of op %d: %w", i, err)
		}
		if !bytes.Equal(want, r.artifact) {
			fail(i, "artifact differs from the in-process run of the same spec")
		}
		verified++
	}
	runtime.ReadMemStats(&ms1)
	var took, cycles, onNs, offNs []int64
	for i, r := range results {
		if r.err != nil {
			if rep.failed++; rep.failed <= 3 {
				rep.problem("op %d: %v", i, r.err)
			}
			continue
		}
		took = append(took, int64(r.took))
		cycles = append(cycles, r.cycles)
		if r.traced {
			onNs = append(onNs, int64(r.took))
		} else {
			offNs = append(offNs, int64(r.took))
		}
	}
	stateFiles, stateBytes, err := walkState(s.stateDir)
	if err != nil {
		return nil, err
	}

	// Set up again for the setup_s median, on fresh state directories.
	for i := 1; i < setupsPerRun; i++ {
		t := time.Now()
		again, err := w.setUp(o, i, log, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t))
		again.close()
	}

	if len(took) == 0 || verified == 0 {
		return nil, errors.New("serve-mixed: no op succeeded")
	}
	rep.set("setup_s", medianSeconds(setups))
	rep.setTimings(yard, float64(ops)/wall.Seconds(), percentile(took, 50)/1e6, percentile(took, 75)/1e6,
		ms(cpu1-cpu0)/float64(ops))
	rep.set("rss_mb", rss)
	rep.set("allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(verified))
	rep.set("sim_latency_p95_cycles", percentile(cycles, 95))
	rep.note("op time p50 %.2f p75 %.2f p90 %.2f p95 %.2f p98 %.2f ms", percentile(took, 50)/1e6, percentile(took, 75)/1e6, percentile(took, 90)/1e6, percentile(took, 95)/1e6, percentile(took, 98)/1e6)
	rep.note("ops %d in %.3f s on %d clients; p95 has %d samples beyond it; %d artifacts recomputed in-process; set-ups %v",
		ops, wall.Seconds(), w.clients, ops-int(math.Ceil(0.95*float64(ops))), verified, setups)
	if tr == nil {
		return rep, nil
	}

	// Per-layer numbers.
	for _, t := range tracers {
		tr.merge(t)
	}
	var waitCampaign, waitFault, hit []int64
	for i, r := range results {
		if r.err != nil {
			continue
		}
		switch {
		case r.deduped:
			hit = append(hit, int64(r.took))
		case plan.ops[i].class == classCampaign:
			waitCampaign = append(waitCampaign, int64(r.wait))
		case plan.ops[i].class == classFault:
			waitFault = append(waitFault, int64(r.wait))
		}
	}
	rep.set("jobs.spawn_ready_ms", tr.percentile(spSpawnReady, 50)/1e6)
	rep.set("jobs.restart_rescan_ms", tr.percentile(spRestart, 50)/1e6)
	rep.set("jobs.submit_ms_p50", tr.percentile(spSubmit, 50)/1e6)
	rep.set("jobs.artifact_get_ms_p50", tr.percentile(spArtifactGet, 50)/1e6)
	rep.set("jobs.wait_ms_p50.campaign", percentile(waitCampaign, 50)/1e6)
	rep.set("jobs.wait_ms_p50.fault", percentile(waitFault, 50)/1e6)
	rep.set("jobs.e2e_ms_p50.hit", percentile(hit, 50)/1e6)
	if n := m1.Submitted - m0.Submitted; n > 0 {
		rep.set("jobs.dedupe_hit_share", float64(m1.Deduped-m0.Deduped)/float64(n))
	}
	rep.set("jobs.executions", float64(m1.Executions-m0.Executions))
	rep.set("jobs.cycles_per_s", float64(m1.CyclesDone-m0.CyclesDone)/wall.Seconds())
	if dirs, err := os.ReadDir(filepath.Join(s.stateDir, "execs")); err == nil && len(dirs) > 0 {
		rep.set("jobs.state_files_per_exec", float64(stateFiles)/float64(len(dirs)))
		rep.set("jobs.state_kb_per_exec", float64(stateBytes)/1024/float64(len(dirs)))
	}
	if len(onNs) > 0 && len(offNs) > 0 {
		rep.set("trace.overhead_share", 1-meanOf(offNs)/meanOf(onNs))
	}
	if err := w.ladder(o, tr, rep); err != nil {
		return nil, err
	}
	path, err := tr.write(o.outDir, w.name, o.seed)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	rep.note("trace written to %s (%d spans)", path, len(tr.spans))
	return rep, nil
}

// walkState counts the regular files under the state directory.
func walkState(dir string) (files int, size int64, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			files++
			size += info.Size()
		}
		return nil
	})
	return files, size, err
}

func meanOf(v []int64) float64 {
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s / float64(len(v))
}
