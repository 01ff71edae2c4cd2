package replay

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sr2201/internal/campaign"
	"sr2201/internal/inject"
)

func baseSpec() campaign.RunText {
	return campaign.RunText{
		Shape:    "4x4",
		Fails:    []string{"rtc:2,1@40"},
		Patterns: []string{"shift+5"},
		Waves:    4,
		Gap:      24,
		Inject:   inject.Options{Retransmit: true, RetryAfter: 32},
	}
}

// fromFlags spells a run with the run flags mdxreplay and mdxfault share.
func fromFlags(t *testing.T, args string) campaign.RunText {
	t.Helper()
	var text campaign.RunText
	if err := text.ParseFlags(flag.NewFlagSet("mdxreplay", flag.ContinueOnError), strings.Fields(args)); err != nil {
		t.Fatal(err)
	}
	return text
}

// fig9Args is the paper's Fig. 9 deadlock as mdxreplay spells it: the
// separate-D-XB design, a dead router, one detoured unicast and a broadcast
// crossing it. mdxfault with the same flags reports DEADLOCK at cycle 528.
const fig9Args = "-shape 4x4 -dxb-separate -sxb 0,0 -dxb 0,3 -preset rtc:2,1 -patterns pair:0,1>2,2 -broadcast 3,2@0 -packet 24 -waves 1 -gap 1"

// groundTruth locksteps two fresh runs from cycle 0 and returns the first
// divergent cycle the hard way — the oracle Bisect must match.
func groundTruth(t *testing.T, a, b campaign.RunText) (diverged bool, cycle int64) {
	t.Helper()
	mk := func(s campaign.RunText) *campaign.CellRun {
		cs, err := s.Spec()
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

func record(t *testing.T, spec campaign.RunText, every int64, keep int) *Recording {
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
	retuned.Inject.RetryAfter = 64

	for _, tc := range []struct {
		name string
		a, b campaign.RunText
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
	sep.Variant.DXBSeparate = true
	sep.Variant.DXB = "0,1"
	sep.Patterns = []string{"reverse"}
	base := baseSpec()
	base.Patterns = []string{"reverse"}

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

// TestLoadRejectsRetiredShardsField: a recording whose spec carries a
// retired knob — "shards", or the pivot extension's "pivot_last_dim" — fails
// to load with an error naming the field.
func TestLoadRejectsRetiredShardsField(t *testing.T) {
	for _, knob := range [][2]string{{"shards", "4"}, {"pivot_last_dim", "true"}} {
		field, value := knob[0], knob[1]
		rec := record(t, baseSpec(), 64, 0)
		path := filepath.Join(rec.Dir, "meta.json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		legacy := bytes.Replace(data, []byte(`"spec": {`), []byte(`"spec": {"`+field+`": `+value+`,`), 1)
		if bytes.Equal(legacy, data) {
			t.Fatal("meta.json layout changed; the fixture edit did not apply")
		}
		if err := os.WriteFile(path, legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(rec.Dir); err == nil || !strings.Contains(err.Error(), `"`+field+`"`) {
			t.Fatalf("Load error = %v, want one naming %q", err, field)
		}
	}
}

// TestRecordFig9: mdxreplay's flags record the paper's Fig. 9 run, which
// deadlocks at the cycle mdxfault reports, and the recording's spec loads
// back as the RunText the flags spelled.
func TestRecordFig9(t *testing.T) {
	text := fromFlags(t, fig9Args)
	rec := record(t, text, 64, 0)
	if m := rec.Meta; !m.Deadlocked || m.Drained || m.Final.Cycle != 528 {
		t.Errorf("Fig. 9 recording: deadlocked=%v drained=%v final cycle %d, want a deadlock at cycle 528",
			m.Deadlocked, m.Drained, m.Final.Cycle)
	}
	got, err := Load(rec.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Meta.Spec, text) {
		t.Errorf("spec did not round-trip:\n got %+v\nwant %+v", got.Meta.Spec, text)
	}
}

// TestBisectFig9Variants: Fig. 9 recordings that differ in one knob bisect
// to the cycle the lockstep-from-zero oracle finds — the unified design
// parts from the separate D-XB at its first detour, the recovering run
// outlives the deadlocked one.
func TestBisectFig9Variants(t *testing.T) {
	fig9 := fromFlags(t, fig9Args)
	for _, tc := range []struct{ name, args string }{
		{"unified design", strings.Replace(fig9Args, "-dxb-separate -sxb 0,0 -dxb 0,3", "-sxb 0,0", 1)},
		{"recover", fig9Args + " -recover"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			variant := fromFlags(t, tc.args)
			wantDiv, wantCycle := groundTruth(t, fig9, variant)
			if !wantDiv {
				t.Fatal("fixture does not diverge")
			}
			d, err := Bisect(record(t, fig9, 64, 0), record(t, variant, 64, 0))
			if err != nil {
				t.Fatal(err)
			}
			if !d.Diverged || d.Cycle != wantCycle {
				t.Errorf("Bisect: diverged=%v cycle=%d, oracle says cycle %d", d.Diverged, d.Cycle, wantCycle)
			}
		})
	}
}

// TestRecordingSeekReachesFinalHash: recordings of recovery,
// reconfiguration and HyperX runs restore from every retained snapshot and
// step to the recorded final state.
func TestRecordingSeekReachesFinalHash(t *testing.T) {
	for _, tc := range []struct{ name, args string }{
		{"recover", fig9Args + " -retransmit -retry-after 32 -stall 256 -recover -stall-threshold 256"},
		{"reconfig", "-shape 4x4 -dxb-separate -sxb 0,0 -dxb 0,3 -fail rtc:2,1@40 -patterns pair:0,1>2,2 -broadcast 3,2@48 -packet 24 -waves 2 -gap 48 -retransmit -retry-after 32 -stall 256 -recover -stall-threshold 256 -reconfig fault"},
		{"hyperx", "-shape 4x4 -topo hyperx -fail link:0,0-3,0@60 -waves 4 -retransmit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := Load(record(t, fromFlags(t, tc.args), 32, 0).Dir)
			if err != nil {
				t.Fatal(err)
			}
			m := rec.Meta
			if !m.Drained || len(m.Snapshots) < 2 {
				t.Fatalf("fixture: drained=%v with %d snapshot(s); want a drained run past its first rung", m.Drained, len(m.Snapshots))
			}
			for _, at := range m.Snapshots[1:] {
				c, err := rec.seek(at)
				if err != nil {
					t.Fatal(err)
				}
				for !c.Done() {
					c.Step()
				}
				if c.Cycle() != m.Final.Cycle || hashAt(c) != m.Final.Hash {
					t.Errorf("from the snapshot at cycle %d: ended at cycle %d hash %s, recorded cycle %d hash %s",
						at, c.Cycle(), hashAt(c), m.Final.Cycle, m.Final.Hash)
				}
			}
		})
	}
}

// TestRecordRejectsUnderFlagName: a spec the resolver refuses never starts
// a recording, and mdxreplay reports it under the flag that spelled it.
func TestRecordRejectsUnderFlagName(t *testing.T) {
	_, err := Record(fromFlags(t, fig9Args+" -gap 0"), 64, 0, t.TempDir())
	if err == nil || !strings.HasPrefix(campaign.FlagError(err).Error(), "-gap: ") {
		t.Errorf("Record error = %v, want a rejection of -gap", err)
	}
}

// TestLoadRejectsVersion1: a recording in the retired layout is refused by
// its version, with the remedy.
func TestLoadRejectsVersion1(t *testing.T) {
	dir := t.TempDir()
	v1 := `{"version":1,"spec":{"shape":"4x4","pattern":"shift+5","waves":4,"gap":24,"retransmit":true},` +
		`"every":64,"points":[{"cycle":0,"hash":"0000000000000000"}],"snapshots":[0],` +
		`"final":{"cycle":0,"hash":"0000000000000000"},"drained":true,"stalled":false,"deadlocked":false}`
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(dir)
	if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "re-record") {
		t.Fatalf("Load error = %v, want a refusal naming version 1 and asking to re-record", err)
	}
}
