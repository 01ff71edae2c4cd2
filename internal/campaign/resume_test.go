package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
)

func resumeSpec() Spec {
	return Spec{
		Shape:   geom.MustShape(4, 4),
		Events:  []inject.Event{{Cycle: 12, Fault: fault.RouterFault(geom.Coord{2, 1})}},
		Pattern: Shift(5),
		Waves:   4,
		Gap:     24,
		Inject:  inject.Options{Retransmit: true, RetryAfter: 32, StallThreshold: 128},
	}
}

// TestCellRunResumeEquivalence parks a cell at several cycles and checks
// that a fresh cell seeking the Mark reaches the parked state and ends with
// the uninterrupted verdict exactly.
func TestCellRunResumeEquivalence(t *testing.T) {
	spec := resumeSpec()
	want, err := RunCell(spec)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int64{0, 12, 13, 40, 90} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			c, err := NewCellRun(spec)
			if err != nil {
				t.Fatal(err)
			}
			for c.Cycle() < k {
				if c.Step() {
					t.Fatalf("cell finished at cycle %d before park point %d", c.Cycle(), k)
				}
			}
			mk := c.Mark()

			c2, err := NewCellRun(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := c2.Seek(mk); err != nil {
				t.Fatalf("seek: %v", err)
			}
			for !c2.Step() {
			}
			got, err := c2.Result()
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
				t.Errorf("resumed verdict differs\n--- resumed\n%+v\n--- uninterrupted\n%+v", got, want)
			}
		})
	}
}

// TestSingleRunResumeByteIdentical parks RunSingle's stepper mid-run —
// including inside the casualty-reporting window — and checks that a fresh
// run seeking the Mark renders a report stream byte-identical to the
// uninterrupted one.
func TestSingleRunResumeByteIdentical(t *testing.T) {
	spec := SingleSpec{
		Shape:   geom.MustShape(4, 4),
		Events:  []inject.Event{{Cycle: 12, Fault: fault.RouterFault(geom.Coord{2, 1})}},
		Pattern: Shift(5),
		Waves:   4,
		Gap:     24,
		Inject:  inject.Options{Retransmit: true, RetryAfter: 32, StallThreshold: 128},
	}
	var want bytes.Buffer
	wantOut, err := RunSingle(spec, &want)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want.String(), "killed in flight") {
		t.Fatalf("fixture too tame — no casualty lines to re-render:\n%s", want.String())
	}

	for _, k := range []int64{0, 13, 40} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			var junk bytes.Buffer
			r, err := NewSingleRun(spec, &junk)
			if err != nil {
				t.Fatal(err)
			}
			for r.Cycle() < k {
				if r.Step() {
					t.Fatalf("run finished before park point %d", k)
				}
			}
			mk := r.Mark()

			var got bytes.Buffer
			r2, err := NewSingleRun(spec, &got)
			if err != nil {
				t.Fatal(err)
			}
			if err := r2.Seek(mk); err != nil {
				t.Fatalf("seek: %v", err)
			}
			if err := r2.Drive(nil); err != nil {
				t.Fatal(err)
			}
			gotOut, err := r2.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Errorf("resumed report differs\n--- resumed\n%s--- uninterrupted\n%s", got.String(), want.String())
			}
			if fmt.Sprintf("%+v", gotOut) != fmt.Sprintf("%+v", wantOut) {
				t.Errorf("outcome differs: %+v != %+v", gotOut, wantOut)
			}
		})
	}
}

// TestCampaignStoreResume cancels a stored campaign partway, then re-runs it
// to completion and checks (a) the output matches the uninterrupted run at

// TestSeekRefusesDivergedMark pins the two ways a re-execution can miss a
// parked Mark — another state hash at the cycle, or a run that finishes
// before it — and that both are classified as ErrDiverged; the true Mark is
// reached.
func TestSeekRefusesDivergedMark(t *testing.T) {
	spec := resumeSpec()
	c, err := NewCellRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	for c.Cycle() < 40 {
		if c.Step() {
			t.Fatalf("cell finished at cycle %d before the mark", c.Cycle())
		}
	}
	mk := c.Mark()
	for !c.Step() {
	}
	end := c.Cycle()

	for name, tc := range map[string]struct {
		mk   Mark
		want string
	}{
		"parked":   {mk, ""},
		"tampered": {Mark{Cycle: mk.Cycle, Hash: mk.Hash ^ 1}, fmt.Sprintf("at cycle %d the state hash is %016x, the parked run's is %016x", mk.Cycle, mk.Hash, mk.Hash^1)},
		"past-end": {Mark{Cycle: end + 10, Hash: mk.Hash}, fmt.Sprintf("finished at cycle %d, before the parked cycle %d", end, end+10)},
	} {
		t.Run(name, func(t *testing.T) {
			c, err := NewCellRun(spec)
			if err != nil {
				t.Fatal(err)
			}
			err = c.Seek(tc.mk)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("seek to the parked mark: %v", err)
				}
				return
			}
			if !errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("seek error %v, want ErrDiverged naming %q", err, tc.want)
			}
		})
	}
}

// TestCampaignStoreResume cancels a stored campaign partway, then re-runs it
// to completion and checks (a) the output matches the uninterrupted run at
// several parallelism levels, (b) completed cells were not re-run.
func TestCampaignStoreResume(t *testing.T) {
	base := smallCampaign(1)
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	for _, parallel := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			dir := t.TempDir()
			store, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}

			// First attempt: cancel after a few cells complete. OnCell fires
			// from concurrent sweep workers, so the counters must be atomic.
			ctx, cancel := context.WithCancel(context.Background())
			var cells atomic.Int64
			cfg := smallCampaign(parallel)
			cfg.Store = store
			cfg.Ctx = ctx
			cfg.OnCell = func(int64) {
				if cells.Add(1) == 4 {
					cancel()
				}
			}
			if _, err := Run(cfg); err == nil {
				t.Fatal("cancelled campaign unexpectedly completed")
			}
			results := countFiles(t, dir, ".result")
			if results == 0 {
				t.Fatal("no cell results persisted before cancellation")
			}

			// Second attempt: poison the already-completed cells' inputs by
			// counting re-runs — a skipped cell must come from the store.
			cfg2 := smallCampaign(parallel)
			cfg2.Store = store
			var reran atomic.Int64
			cfg2.OnCell = func(int64) { reran.Add(1) }
			got, err := Run(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Errorf("resumed campaign differs\n--- resumed\n%s--- uninterrupted\n%s", got.String(), want.String())
			}
			if int(reran.Load()) != len(want.Cells) {
				t.Errorf("OnCell fired %d times, want %d", reran.Load(), len(want.Cells))
			}
			if countFiles(t, dir, ".result") != len(want.Cells) {
				t.Errorf("persisted %d results, want %d", countFiles(t, dir, ".result"), len(want.Cells))
			}
		})
	}
}

func countFiles(t *testing.T, dir, suffix string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) == suffix {
			n++
		}
	}
	return n
}
