package jobs

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

type submitResp struct {
	ID      string `json:"id"`
	Status  string `json:"status"`
	Deduped bool   `json:"deduped"`
	Error   string `json:"error"`
	Field   string `json:"field"`
}

func postJob(t *testing.T, ts *httptest.Server, body string) (submitResp, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out submitResp
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	return out, resp
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %s", id, resp.Status)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitHTTPStatus(t *testing.T, ts *httptest.Server, id string, want Status) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		if v.Status == want {
			return v
		}
		if v.Status.terminal() {
			t.Fatalf("job %s reached %s (err=%q), want %s", id, v.Status, v.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobView{}
}

func getArtifact(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET artifact %s: %s (%s)", id, resp.Status, b)
	}
	return string(b)
}

// streamEvents consumes the whole JSONL event stream and returns the decoded
// events in arrival order.
func streamEvents(t *testing.T, ts *httptest.Server, id string) []Event {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events %s: %s", id, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/jsonl") {
		t.Errorf("events content-type = %q", ct)
	}
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	return evs
}

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(cfg)
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(func() { ts.Close(); m.Stop() })
	return ts, m
}

// TestServerLifecyclePerKind drives submit → poll → stream → artifact over
// HTTP for each job kind.
func TestServerLifecyclePerKind(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 2, Parallel: 2})
	cases := []struct {
		name, body, wantInArtifact string
		wantCells                  bool // serial experiments report no cells
	}{
		{"experiments", `{"kind":"experiments","experiments":{"ids":["E1"],"quick":true}}`, "E1", false},
		{"fault", `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"shift+5","waves":2,"inject":{"retransmit":true}}}`, "outcome: drained", true},
		{"campaign", `{"kind":"campaign","campaign":{"shape":"4x4","epochs":[12],"patterns":["shift+5"],"inject":{"retransmit":true}}}`, "single-fault campaign", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sub, resp := postJob(t, ts, tc.body)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %s (%+v)", resp.Status, sub)
			}
			if sub.ID == "" || sub.Deduped {
				t.Fatalf("submit response: %+v", sub)
			}
			v := waitHTTPStatus(t, ts, sub.ID, StatusDone)
			if v.ArtifactBytes == 0 {
				t.Errorf("done view lacks artifact size: %+v", v)
			}
			if tc.wantCells && (v.Cells == 0 || v.Cycles == 0) {
				t.Errorf("done view lacks totals: %+v", v)
			}
			artifact := getArtifact(t, ts, sub.ID)
			if len(artifact) != v.ArtifactBytes {
				t.Errorf("artifact length %d != reported %d", len(artifact), v.ArtifactBytes)
			}
			if !strings.Contains(artifact, tc.wantInArtifact) {
				t.Errorf("artifact missing %q:\n%s", tc.wantInArtifact, artifact)
			}
			evs := streamEvents(t, ts, sub.ID)
			for i, ev := range evs {
				if ev.Seq != int64(i) {
					t.Fatalf("event %d has seq %d", i, ev.Seq)
				}
			}
			if evs[0].Type != "queued" || evs[len(evs)-1].Type != "done" {
				t.Errorf("stream endpoints: %s ... %s", evs[0].Type, evs[len(evs)-1].Type)
			}
			hasStarted := false
			for _, ev := range evs {
				hasStarted = hasStarted || ev.Type == "started"
			}
			if !hasStarted {
				t.Errorf("stream has no started event: %+v", evs)
			}
		})
	}
}

func TestServerRejectsBadSpecWithField(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, Parallel: 1})
	sub, resp := postJob(t, ts, `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:9,9@40"],"pattern":"reverse"}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %s", resp.Status)
	}
	if sub.Field != "fault.fails[0]" {
		t.Errorf("field = %q, want fault.fails[0] (%+v)", sub.Field, sub)
	}
}

func TestServerCancelMidRun(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, Parallel: 1})
	body := `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"shift+5","waves":1048576,"gap":200,"horizon":1073741824}}`
	sub, _ := postJob(t, ts, body)
	waitHTTPStatus(t, ts, sub.ID, StatusRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %s", resp.Status)
	}
	waitHTTPStatus(t, ts, sub.ID, StatusCanceled)

	// The stream of a canceled job terminates with a canceled event.
	evs := streamEvents(t, ts, sub.ID)
	if evs[len(evs)-1].Type != "canceled" {
		t.Errorf("canceled stream ends with %s", evs[len(evs)-1].Type)
	}

	// The worker is free again: a quick job completes.
	sub2, _ := postJob(t, ts, `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"shift+5","waves":2,"inject":{"retransmit":true}}}`)
	waitHTTPStatus(t, ts, sub2.ID, StatusDone)
}

func TestServerQueueFull429(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Parallel: 1})
	long := func(gap int) string {
		return `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"shift+5","waves":1048576,"gap":` +
			strconv.Itoa(gap) + `,"horizon":1073741824}}`
	}
	subA, _ := postJob(t, ts, long(201))
	waitHTTPStatus(t, ts, subA.ID, StatusRunning)
	if _, resp := postJob(t, ts, long(202)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %s", resp.Status)
	}
	sub, resp := postJob(t, ts, long(203))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: %s, want 429", resp.Status)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}
	if sub.Error == "" {
		t.Error("429 body has no error message")
	}
}

func TestServerDedupeSharesExecution(t *testing.T) {
	ts, m := newTestServer(t, Config{Workers: 2, Parallel: 2})
	body := `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"shift+5","waves":2,"inject":{"retransmit":true}}}`
	subA, _ := postJob(t, ts, body)
	// Cosmetically different spelling of the same spec.
	subB, _ := postJob(t, ts, `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"shift+5","waves":2,"gap":24,"horizon":50000,"inject":{"retransmit":true,"retry_after":64,"backoff":2,"max_retries":4}}}`)
	waitHTTPStatus(t, ts, subA.ID, StatusDone)
	waitHTTPStatus(t, ts, subB.ID, StatusDone)
	if a, b := getArtifact(t, ts, subA.ID), getArtifact(t, ts, subB.ID); a != b {
		t.Error("deduped jobs returned different artifacts")
	}
	if ex := m.Metrics().Executions; ex != 1 {
		t.Errorf("executions = %d, want 1 (dedupe failed)", ex)
	}
}

func TestServerHealthzAndDrain(t *testing.T) {
	ts, m := newTestServer(t, Config{Workers: 1, Parallel: 1})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s", path, resp.Status)
		}
	}

	// A mid-length job: drain must let it finish.
	sub, _ := postJob(t, ts, `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"shift+5","waves":20000,"gap":100,"horizon":1073741824}}`)
	waitHTTPStatus(t, ts, sub.ID, StatusRunning)
	m.Drain()

	if v := getJob(t, ts, sub.ID); v.Status != StatusDone {
		t.Errorf("job after drain: %s (err=%q), want done", v.Status, v.Error)
	}
	// Liveness stays green while draining — restarting a draining worker
	// would lose the jobs it is finishing. Readiness goes 503 and says why.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: %s, want 200 (liveness only)", resp.Status)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %s, want 503", resp.Status)
	}
	if !strings.Contains(string(body), "draining") {
		t.Errorf("readyz body %q does not name the draining state", body)
	}
	if _, resp := postJob(t, ts, `{"kind":"experiments","experiments":{"ids":["E1"],"quick":true}}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %s, want 503", resp.Status)
	}
}

func TestServerMetrics(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, Parallel: 1})
	sub, _ := postJob(t, ts, `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"shift+5","waves":2,"inject":{"retransmit":true}}}`)
	waitHTTPStatus(t, ts, sub.ID, StatusDone)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mt map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&mt); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"jobs_submitted", "executions", "done", "cycles_done", "job_duration_count"} {
		v, ok := mt[key].(float64)
		if !ok || v < 1 {
			t.Errorf("metrics[%q] = %v, want >= 1", key, mt[key])
		}
	}
}

// TestServerReconfigObservability runs a fault job with online
// reconfiguration enabled end to end over HTTP and asserts the committed
// swap surfaces everywhere the recovery counters do: the job view, the
// event stream (one unthrottled "reconfig" event per outcome) and /metrics.
// Router (2,0) dies on the S-XB line, so the recompile moves the lines and
// commits; a fault off the lines would leave the tables unchanged.
func TestServerReconfigObservability(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, Parallel: 1})
	sub, _ := postJob(t, ts, `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:2,0@40"],"pattern":"shift+5","waves":2,"inject":{"retransmit":true},"reconfig":{"mode":"fault"}}}`)
	v := waitHTTPStatus(t, ts, sub.ID, StatusDone)
	if v.Reconfigured != 1 || v.ReconfigFellBack != 0 {
		t.Errorf("job view reconfig counters = (%d committed, %d fellback), want (1, 0)",
			v.Reconfigured, v.ReconfigFellBack)
	}
	artifact := getArtifact(t, ts, sub.ID)
	if !strings.Contains(artifact, "hot swap to epoch 1") {
		t.Errorf("artifact missing the hot-swap line:\n%s", artifact)
	}
	evs := streamEvents(t, ts, sub.ID)
	reconfigEvents := 0
	for _, ev := range evs {
		if ev.Type == "reconfig" {
			reconfigEvents++
			if ev.Reconfigured != 1 {
				t.Errorf("reconfig event carries cumulative count %d, want 1", ev.Reconfigured)
			}
		}
	}
	if reconfigEvents != 1 {
		t.Errorf("stream has %d reconfig events, want 1: %+v", reconfigEvents, evs)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mt map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&mt); err != nil {
		t.Fatal(err)
	}
	if got, ok := mt["reconfigured_done"].(float64); !ok || got != 1 {
		t.Errorf("metrics[reconfigured_done] = %v, want 1", mt["reconfigured_done"])
	}
	if got, ok := mt["reconfig_fellback_done"].(float64); !ok || got != 0 {
		t.Errorf("metrics[reconfig_fellback_done] = %v, want 0", mt["reconfig_fellback_done"])
	}
}

func TestServerEventsResume(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, Parallel: 1})
	sub, _ := postJob(t, ts, `{"kind":"fault","fault":{"shape":"4x4","fails":["rtc:1,1@40"],"pattern":"shift+5","waves":2,"inject":{"retransmit":true}}}`)
	waitHTTPStatus(t, ts, sub.ID, StatusDone)
	all := streamEvents(t, ts, sub.ID)
	if len(all) < 2 {
		t.Fatalf("too few events: %+v", all)
	}
	// Resuming from seq 1 yields exactly the suffix.
	resp, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/events?from=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
	}
	if len(got) != len(all)-1 || got[0].Seq != 1 {
		t.Errorf("resume from=1: got %d events starting at seq %d, want %d starting at 1",
			len(got), got[0].Seq, len(all)-1)
	}
}

func TestServerNotFound(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, Parallel: 1})
	for _, path := range []string{"/jobs/j999999", "/jobs/j999999/artifact", "/jobs/j999999/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %s, want 404", path, resp.Status)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/j999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job: %s, want 404", resp.Status)
	}
}

// TestAdaptiveRetryAfter pins the adaptive 429 hint: the observed drain
// rate (ring of recent completion timestamps) extrapolated over the queue
// in front of the shed client, clamped to [1, 600] seconds.
func TestAdaptiveRetryAfter(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	ring := func(n int, gap time.Duration) []time.Time {
		out := make([]time.Time, n)
		for i := range out {
			out[i] = base.Add(time.Duration(i) * gap)
		}
		return out
	}
	cases := []struct {
		name   string
		queued int64
		drains []time.Time
		now    time.Time
		secs   int
		ok     bool
	}{
		// No rate yet: zero or one completion observed — fall back.
		{"no samples", 5, nil, base, 0, false},
		{"one sample", 5, ring(1, time.Second), base, 0, false},
		// 6 completions 1s apart ending now: 5 drained over 5s = 1/s.
		// 9 queued ahead plus this client = ceil(10/1) = 10s.
		{"steady rate", 9, ring(6, time.Second), base.Add(5 * time.Second), 10, true},
		// Same rate, empty queue: one slot to drain, 1s.
		{"empty queue", 0, ring(6, time.Second), base.Add(5 * time.Second), 1, true},
		// Fast drain rounds up to the 1s floor.
		{"floor", 0, ring(32, time.Millisecond), base.Add(31 * time.Millisecond), 1, true},
		// Slow drain: 1 completion per 100s, 99 queued -> clamp at 600.
		{"clamp", 99, ring(2, 100*time.Second), base.Add(100 * time.Second), 600, true},
		// Clock skew (drains newer than now) degrades to the floor.
		{"skew", 7, ring(4, time.Second), base.Add(-time.Minute), 1, true},
	}
	for _, tc := range cases {
		secs, ok := adaptiveRetryAfter(tc.queued, tc.drains, tc.now)
		if secs != tc.secs || ok != tc.ok {
			t.Errorf("%s: adaptiveRetryAfter(%d, %d drains) = (%d, %v), want (%d, %v)",
				tc.name, tc.queued, len(tc.drains), secs, ok, tc.secs, tc.ok)
		}
	}
}

// TestServerReadyzDegraded: a worker that loses its state dir keeps
// serving (healthz 200) but fails readiness with the degradation named.
func TestServerReadyzDegraded(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "state")
	ts, m := newTestServer(t, Config{Workers: 1, Parallel: 1, StateDir: dir, WorkerID: "wz"})

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with lost state dir: %s, want 503 (body %q)", resp.Status, body)
	}
	if !strings.Contains(string(body), "state dir") && !strings.Contains(string(body), "degraded") {
		t.Errorf("readyz body %q does not name the state-dir loss", body)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while degraded: %s, want 200 (liveness only)", resp.Status)
	}
	if degraded, _ := m.Degraded(); !degraded {
		t.Error("manager did not report degraded after the probe failure")
	}
}
