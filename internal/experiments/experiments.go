// Package experiments regenerates every evaluated artifact of the paper.
// The paper's evaluation is the sequence of figure-level scenarios
// (Figs. 5-10) plus the qualitative Section 3 claims; DESIGN.md maps each to
// an experiment id (E1-E10) and adds ablations (A1-A3). Each experiment
// produces plain-text tables via internal/stats and a Pass verdict for its
// "shape" criterion — the qualitative agreement the reproduction targets
// (who deadlocks, who wins, what scales how), not absolute numbers.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"sr2201/internal/stats"
	"sr2201/internal/sweep"
)

// Options tune experiment scale.
type Options struct {
	// Quick shrinks sweeps for benchmarks and CI; the full runs are the
	// defaults used to produce EXPERIMENTS.md.
	Quick bool
	// Parallel caps the worker pool used for independent sweep cells
	// (<= 0 means sweep.DefaultParallel(), 1 forces serial execution).
	// Every cell builds its own machine and rand source, and results are
	// merged by cell index, so reports are byte-identical at every
	// parallelism level — the golden tests pin this.
	Parallel int
	// Ctx, if non-nil, cancels sweeps between cells: a running cell
	// finishes, unstarted cells never start, and the experiment returns
	// ctx.Err(). The job server sets this; the CLIs leave it nil.
	Ctx context.Context
	// Budget, if non-nil, draws every sweep worker slot from a budget
	// shared with concurrently running experiments (across jobs), so a
	// server honors one global -parallel no matter how many jobs run.
	// A completed run's report is byte-identical with or without it.
	Budget *sweep.Limiter
	// OnCell, if non-nil, is called once per completed sweep cell with the
	// simulated cycles that cell consumed (0 when the cell does not track
	// cycles). Calls arrive from worker goroutines in completion order;
	// the jobs layer serializes them into its ordered event stream.
	OnCell func(cycles int64)
}

// cellDone reports one completed unit of work with its simulated-cycle count
// to the progress hook. Experiments that iterate sequentially instead of
// fanning out through sweepCells (e.g. the full-machine walk) call it once
// per logical cell so the jobs layer sees their progress too.
func (opt Options) cellDone(cycles int64) {
	if opt.OnCell != nil {
		opt.OnCell(cycles)
	}
}

// sweepCells fans one experiment's independent cells through the worker
// pool. It is the single funnel between the experiment bodies and
// internal/sweep, so the server-side knobs (cancellation context, shared
// budget, progress hook) apply uniformly without each experiment caring.
func sweepCells[R any](opt Options, n int, fn func(i int) (R, error)) ([]R, error) {
	run := fn
	if opt.OnCell != nil {
		run = func(i int) (R, error) {
			r, err := fn(i)
			// Cells whose result knows its simulated-cycle count (e.g.
			// traffic.Result) report it; the rest count as zero-cycle cells.
			var cycles int64
			if c, ok := any(r).(interface{ SimCycles() int64 }); ok && err == nil {
				cycles = c.SimCycles()
			}
			opt.OnCell(cycles)
			return r, err
		}
	}
	if opt.Ctx != nil || opt.Budget != nil {
		return sweep.DoCtxErr(opt.Ctx, opt.Budget, n, opt.Parallel, run)
	}
	return sweep.DoErr(n, opt.Parallel, run)
}

// Report is one experiment's output.
type Report struct {
	ID    string
	Title string
	// Paper names the artifact reproduced (figure/section).
	Paper  string
	Tables []*stats.Table
	Notes  []string
	// Pass records whether the shape criterion held.
	Pass bool
}

// Notef appends a formatted note.
func (r *Report) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the full report.
func (r *Report) String() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "== %s: %s (%s) [%s]\n", r.ID, r.Title, r.Paper, verdict)
	for _, t := range r.Tables {
		b.WriteByte('\n')
		b.WriteString(t.String())
	}
	if len(r.Notes) > 0 {
		b.WriteByte('\n')
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "note: %s\n", n)
		}
	}
	return b.String()
}

// Experiment couples an id with its runner.
type Experiment struct {
	ID    string
	Title string
	Paper string
	// run fills in the report Run hands it: tables, notes and the verdict.
	run func(*Report, Options) error
}

// Run executes the experiment and returns its report.
func (e Experiment) Run(opt Options) (*Report, error) {
	r := &Report{ID: e.ID, Title: e.Title, Paper: e.Paper}
	if err := e.run(r, opt); err != nil {
		return nil, err
	}
	return r, nil
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every registered experiment, ordered by series (E, A, F, V, R,
// H, DR) then numerically within the series.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	rank := func(id string) int {
		if strings.HasPrefix(id, "DR") {
			return 6
		}
		switch id[0] {
		case 'E':
			return 0
		case 'A':
			return 1
		case 'F':
			return 2
		case 'V':
			return 3
		case 'R':
			return 4
		case 'H':
			return 5
		default:
			return 7
		}
	}
	// num parses the numeric suffix after the alphabetic series prefix
	// ("V3" -> 3, "DR12" -> 12).
	num := func(id string) int {
		i := 0
		for i < len(id) && (id[i] < '0' || id[i] > '9') {
			i++
		}
		var n int
		fmt.Sscanf(id[i:], "%d", &n)
		return n
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].ID, out[j].ID
		if rank(a) != rank(b) {
			return rank(a) < rank(b)
		}
		if an, bn := num(a), num(b); an != bn {
			return an < bn
		}
		return a < b
	})
	return out
}

// ByID fetches one experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// Resolve maps a list of ids (case-insensitive; the single keyword "all"
// selects every experiment in id order) to experiments, preserving the
// requested order. It is the shared id front end of mdxbench and the job
// server, so both reject the same inputs and run the same sets.
func Resolve(ids []string) ([]Experiment, error) {
	if len(ids) == 1 && strings.EqualFold(strings.TrimSpace(ids[0]), "all") {
		return All(), nil
	}
	out := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := ByID(strings.ToUpper(id))
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", id)
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: empty experiment list")
	}
	return out, nil
}

// RenderReport renders one report exactly as mdxbench prints it to stdout
// (the report text plus the blank separator line). The job server reuses it
// so an HTTP job artifact is byte-identical to the CLI run.
func RenderReport(r *Report) string { return r.String() + "\n" }
