package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"sr2201/internal/stats"
)

// Span names. A span is recorded by the benchmark around one call into a
// layer's public functions; nothing inside the program under test is
// instrumented.
const (
	spSetup = iota
	spNewMachine
	spAddFault
	spCompileTables
	spWarmup
	spOp
	spSend
	spBroadcast
	spStep
	spHarvest
	spDrain
	spStateHash
	spSnapshot
	spRestore
	spCDG
	spDecide
	spUnicastPath
	spSpawnReady
	spServeWarmup
	spRestart
	spSubmit
	spWait
	spArtifactGet
	spRunCell
	spRunSingleReconfig
	spRunSingleRebuild
	spMemExecCampaign
	spMemExecFault
	spDiskExecCampaign
	spDiskExecFault
	spCount
)

var spanNames = [spCount]string{
	spSetup:             "bench.setup",
	spNewMachine:        "core.new_machine",
	spAddFault:          "core.add_fault",
	spCompileTables:     "routing.compile_tables",
	spWarmup:            "traffic.warmup",
	spOp:                "bench.op",
	spSend:              "core.send",
	spBroadcast:         "core.broadcast",
	spStep:              "engine.step",
	spHarvest:           "stats.harvest",
	spDrain:             "core.run_drain",
	spStateHash:         "engine.state_hash",
	spSnapshot:          "checkpoint.snapshot",
	spRestore:           "checkpoint.restore",
	spCDG:               "cdg.analyze",
	spDecide:            "routing.decide",
	spUnicastPath:       "routing.unicast_path",
	spSpawnReady:        "jobs.spawn_ready",
	spServeWarmup:       "jobs.warmup",
	spRestart:           "jobs.restart_rescan",
	spSubmit:            "jobs.submit",
	spWait:              "jobs.wait",
	spArtifactGet:       "jobs.artifact_get",
	spRunCell:           "campaign.run_cell",
	spRunSingleReconfig: "campaign.run_single_reconfig",
	spRunSingleRebuild:  "campaign.run_single_rebuild",
	spMemExecCampaign:   "jobs.mem_exec.campaign",
	spMemExecFault:      "jobs.mem_exec.fault",
	spDiskExecCampaign:  "jobs.disk_exec.campaign",
	spDiskExecFault:     "jobs.disk_exec.fault",
}

// detailOps is how many ops keep their per-cycle child spans in the trace
// file. Every span still feeds the per-name durations; only the file is
// capped, because a run records one engine.step span per simulated cycle.
const detailOps = 8

// span is one recorded interval. parent is an index into the written span
// list (-1 for a root); op is the op the span belongs to (-1 outside ops).
type span struct {
	name   int
	start  int64
	end    int64
	parent int
	op     int
}

type openSpan struct {
	name     int
	start    int64
	children int64 // time covered by child spans
	index    int   // index in spans, or -1 when not kept
}

// tracer keeps spans in memory. It is used from one goroutine; concurrent
// clients each own one and merge at the end. A nil tracer, or one that is
// switched off, records nothing.
type tracer struct {
	base  time.Time
	on    bool
	op    int
	stack []openSpan
	spans []span
	dur   [spCount][]int64 // every span's duration, by name
	self  [spCount]int64   // total time not covered by child spans
}

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, on: true, op: -1, stack: make([]openSpan, 0, 8)}
}

func (t *tracer) active() bool { return t != nil && t.on }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// keep reports whether a span under the current op goes to the trace file.
func (t *tracer) keep(name int) bool {
	return t.op < detailOps || name == spOp
}

func (t *tracer) begin(name int) {
	if !t.active() {
		return
	}
	o := openSpan{name: name, start: t.now(), index: -1}
	if t.keep(name) {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].index
		}
		o.index = len(t.spans)
		t.spans = append(t.spans, span{name: name, start: o.start, parent: parent, op: t.op})
	}
	t.stack = append(t.stack, o)
}

func (t *tracer) end() {
	if !t.active() || len(t.stack) == 0 {
		return
	}
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	end := t.now()
	if o.index >= 0 {
		t.spans[o.index].end = end
	}
	t.account(o.name, end-o.start, o.children)
}

func (t *tracer) account(name int, d, children int64) {
	t.dur[name] = append(t.dur[name], d)
	t.self[name] += d - children
	if n := len(t.stack); n > 0 {
		t.stack[n-1].children += d
	}
}

// merge folds another tracer's spans in (its parents are re-based).
func (t *tracer) merge(o *tracer) {
	off := len(t.spans)
	for _, s := range o.spans {
		if s.parent >= 0 {
			s.parent += off
		}
		t.spans = append(t.spans, s)
	}
	for i := range t.dur {
		t.dur[i] = append(t.dur[i], o.dur[i]...)
		t.self[i] += o.self[i]
	}
}

func (t *tracer) total(name int) int64 {
	var s int64
	for _, d := range t.dur[name] {
		s += d
	}
	return s
}

// mean and percentile report a span name's durations in ns; 0 with no samples.
func (t *tracer) mean(name int) float64 {
	if len(t.dur[name]) == 0 {
		return 0
	}
	return float64(t.total(name)) / float64(len(t.dur[name]))
}

func (t *tracer) percentile(name int, p float64) float64 {
	return percentile(t.dur[name], p)
}

// percentile is the nearest-rank percentile of a sample (the repository's
// stats.Latency definition), 0 when empty.
func percentile(v []int64, p float64) float64 {
	var l stats.Latency
	for _, x := range v {
		l.Add(x)
	}
	return float64(l.Percentile(p))
}

type traceSpanJSON struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
}

type traceLayerJSON struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

type traceFileJSON struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Note     string           `json:"note"`
	Layers   []traceLayerJSON `json:"layers"`
	Spans    []traceSpanJSON  `json:"spans"`
}

// write stores the trace as <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	out := traceFileJSON{
		Workload: workload,
		Seed:     seed,
		Note:     "layers cover every span recorded; spans lists every bench.op span and, for the first ops only, their per-cycle children",
	}
	for i := 0; i < spCount; i++ {
		if len(t.dur[i]) == 0 {
			continue
		}
		out.Layers = append(out.Layers, traceLayerJSON{Name: spanNames[i], Count: len(t.dur[i]), TotalNs: t.total(i), SelfNs: t.self[i]})
	}
	out.Spans = make([]traceSpanJSON, len(t.spans))
	for i, s := range t.spans {
		out.Spans[i] = traceSpanJSON{ID: i, Name: spanNames[s.name], StartNs: s.start, EndNs: s.end, Parent: s.parent, OpID: s.op}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
