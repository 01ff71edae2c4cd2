package replay

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sr2201/internal/campaign"
)

func baseSpec() RunSpec {
	return RunSpec{
		Shape:      "4x4",
		Fails:      []string{"rtc:2,1@40"},
		Pattern:    "shift+5",
		Waves:      4,
		Gap:        24,
		Retransmit: true,
		RetryAfter: 32,
	}
}

// groundTruth locksteps two fresh runs from cycle 0 and returns the first
// divergent cycle the hard way — the oracle Bisect must match.
func groundTruth(t *testing.T, a, b RunSpec) (diverged bool, cycle int64) {
	t.Helper()
	mk := func(s RunSpec) *campaign.CellRun {
		cs, err := s.CellSpec()
		if err != nil {
			t.Fatal(err)
		}
		c, err := campaign.NewCellRun(cs)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ca, cb := mk(a), mk(b)
	for {
		if ca.Done() != cb.Done() {
			if ca.Done() {
				return true, ca.Cycle()
			}
			return true, cb.Cycle()
		}
		if ca.Done() && cb.Done() {
			return hashAt(ca) != hashAt(cb), ca.Cycle()
		}
		ca.Step()
		cb.Step()
		if ca.Done() || cb.Done() {
			continue
		}
		if hashAt(ca) != hashAt(cb) {
			return true, ca.Cycle()
		}
	}
}

func record(t *testing.T, spec RunSpec, every int64, keep int) *Recording {
	t.Helper()
	rec, err := Record(spec, every, keep, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestBisectFindsExactCycle pins Bisect against the lockstep-from-zero oracle
// for several config deltas: a shifted fault epoch, a different fault
// placement, and different retransmission tuning.
func TestBisectFindsExactCycle(t *testing.T) {
	shifted := baseSpec()
	shifted.Fails = []string{"rtc:2,1@80"}
	moved := baseSpec()
	moved.Fails = []string{"rtc:1,2@40"}
	// Retransmission tuning only matters when the fault kills a packet that
	// gets resent, so this pair faults mid-wave (cycle 28, wave 2 airborne,
	// one recoverable casualty).
	inFlight := baseSpec()
	inFlight.Fails = []string{"rtc:2,1@28"}
	retuned := inFlight
	retuned.RetryAfter = 64

	for _, tc := range []struct {
		name string
		a, b RunSpec
	}{
		{"epoch-shift", baseSpec(), shifted},
		{"placement", baseSpec(), moved},
		{"retry-after", inFlight, retuned},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantDiv, wantCycle := groundTruth(t, tc.a, tc.b)
			if !wantDiv {
				t.Fatalf("fixture does not diverge — pick a sharper delta")
			}
			ra := record(t, tc.a, 64, 0)
			rb := record(t, tc.b, 64, 0)
			d, err := Bisect(ra, rb)
			if err != nil {
				t.Fatal(err)
			}
			if !d.Diverged || d.Cycle != wantCycle {
				t.Errorf("Bisect: diverged=%v cycle=%d, oracle says cycle %d", d.Diverged, d.Cycle, wantCycle)
			}
			if d.HashA == d.HashB && !d.Terminated {
				t.Errorf("divergence with equal hashes: %s", d.HashA)
			}
			// The seek must actually save work: the divergence is past the
			// first ladder rung, so the lockstep should not start at zero.
			if wantCycle > 64 && d.SeekCycle == 0 {
				t.Errorf("bisect replayed from zero (seek=%d, divergence at %d)", d.SeekCycle, wantCycle)
			}
			if d.Stepped > wantCycle-d.SeekCycle+1 {
				t.Errorf("lockstep ran %d cycles from seek %d for a divergence at %d", d.Stepped, d.SeekCycle, wantCycle)
			}
		})
	}
}

// TestBisectIdenticalRuns: two recordings of the same spec never diverge.
func TestBisectIdenticalRuns(t *testing.T) {
	ra := record(t, baseSpec(), 64, 0)
	rb := record(t, baseSpec(), 64, 0)
	d, err := Bisect(ra, rb)
	if err != nil {
		t.Fatal(err)
	}
	if d.Diverged {
		t.Errorf("identical specs reported divergent at cycle %d (%s vs %s)", d.Cycle, d.HashA, d.HashB)
	}
}

// TestBisectPrunedRing: with a tiny ring that has pruned every pre-divergence
// snapshot, Bisect falls back to a fresh run from cycle 0 and still lands on
// the exact cycle.
func TestBisectPrunedRing(t *testing.T) {
	alt := baseSpec()
	alt.Fails = []string{"rtc:2,1@80"}
	_, wantCycle := groundTruth(t, baseSpec(), alt)

	ra := record(t, baseSpec(), 64, 1)
	rb := record(t, alt, 64, 1)
	if n := len(ra.Meta.Snapshots); n != 1 {
		t.Fatalf("ring kept %d snapshots, want 1", n)
	}
	d, err := Bisect(ra, rb)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Diverged || d.Cycle != wantCycle {
		t.Errorf("Bisect with pruned ring: diverged=%v cycle=%d, want %d", d.Diverged, d.Cycle, wantCycle)
	}
}

// TestBisectMachineVariants records one workload on the deadlock-free
// machine and on the separate-D-XB variant (paper Fig. 9) and checks the
// bisector pins their first state divergence after the fault forces detours.
func TestBisectMachineVariants(t *testing.T) {
	sep := baseSpec()
	sep.DXBSeparate = true
	sep.DXB = "0,1"
	sep.Pattern = "reverse"
	base := baseSpec()
	base.Pattern = "reverse"

	wantDiv, wantCycle := groundTruth(t, base, sep)
	if !wantDiv {
		t.Skip("variant runs never diverged under this workload")
	}
	ra := record(t, base, 64, 0)
	rb := record(t, sep, 64, 0)
	d, err := Bisect(ra, rb)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Diverged || d.Cycle != wantCycle {
		t.Errorf("variant bisect: diverged=%v cycle=%d, want %d", d.Diverged, d.Cycle, wantCycle)
	}
}

// TestRecordingRoundTrip: Load reads back exactly what Record wrote, and the
// ladder starts at cycle 0 with the final point consistent with the verdict.
func TestRecordingRoundTrip(t *testing.T) {
	rec := record(t, baseSpec(), 64, 0)
	got, err := Load(rec.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Meta.Points) != len(rec.Meta.Points) || got.Meta.Points[0].Cycle != 0 {
		t.Errorf("ladder mismatch after reload: %d points, first at %d",
			len(got.Meta.Points), got.Meta.Points[0].Cycle)
	}
	if !got.Meta.Drained {
		t.Errorf("fixture run should drain; meta says %+v", got.Meta)
	}
	if got.Meta.Final.Cycle < got.Meta.Points[len(got.Meta.Points)-1].Cycle {
		t.Errorf("final cycle %d precedes last ladder point", got.Meta.Final.Cycle)
	}
}

// TestLoadRejectsRetiredShardsField: a recording whose RunSpec carries the
// retired "shards" knob fails to load with an error naming the field.
func TestLoadRejectsRetiredShardsField(t *testing.T) {
	rec := record(t, baseSpec(), 64, 0)
	path := filepath.Join(rec.Dir, "meta.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := bytes.Replace(data, []byte(`"spec": {`), []byte(`"spec": {"shards": 4,`), 1)
	if bytes.Equal(legacy, data) {
		t.Fatal("meta.json layout changed; the fixture edit did not apply")
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(rec.Dir); err == nil || !strings.Contains(err.Error(), `"shards"`) {
		t.Fatalf("Load error = %v, want one naming \"shards\"", err)
	}
}
