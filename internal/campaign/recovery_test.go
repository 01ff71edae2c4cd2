package campaign

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
	"sr2201/internal/recovery"
)

// fig9Single is the paper's Fig. 9 deadlocking configuration as a
// single-schedule spec: a separate-DXB 4x4 machine with a pre-set router
// fault, one detoured unicast, and a broadcast crossing it.
func fig9Single(separate bool, broadcastAt int64) SingleSpec {
	return SingleSpec{
		Shape:       geom.MustShape(4, 4),
		SXB:         geom.Coord{0, 0},
		DXB:         geom.Coord{0, 3},
		DXBSeparate: separate,
		Preset:      []fault.Fault{fault.RouterFault(geom.Coord{2, 1})},
		Pattern:     Pair(geom.Coord{0, 1}, geom.Coord{2, 2}, 2),
		Waves:       1,
		Gap:         1,
		PacketSize:  24,
		Broadcasts:  []Broadcast{{Cycle: broadcastAt, Src: geom.Coord{3, 2}, Size: 24}},
		Inject:      inject.Options{Retransmit: true, RetryAfter: 32, StallThreshold: 256},
		Recovery:    recovery.Options{Enabled: true, StallThreshold: 256},
	}
}

// TestSingleRunFig9Recovered runs the deadlocking design to completion under
// recovery and checks the report carries the recovery narrative.
func TestSingleRunFig9Recovered(t *testing.T) {
	var buf bytes.Buffer
	spec := fig9Single(true, 0)
	out, err := RunSingle(spec, &buf)
	if err != nil {
		t.Fatal(err)
	}
	report := buf.String()
	if !out.Drained || out.Deadlocked || out.Stalled {
		t.Fatalf("fig9 did not drain under recovery: %+v\n%s", out, report)
	}
	for _, want := range []string{
		"recovery: enabled (stall-threshold=256",
		"recovery @ cycle",
		"victim",
		"retransmit scheduled",
		"recoveries: 1",
		"outcome: drained",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "LIVELOCK") {
		t.Fatalf("unexpected livelock:\n%s", report)
	}
}

// TestSingleRunDeadlockFreeDesignNoRecoveries runs the identical workload on
// the unified D-XB = S-XB design: recovery is armed but must never fire.
func TestSingleRunDeadlockFreeDesignNoRecoveries(t *testing.T) {
	var buf bytes.Buffer
	out, err := RunSingle(fig9Single(false, 0), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Drained {
		t.Fatalf("unified design did not drain: %+v\n%s", out, buf.String())
	}
	if !strings.Contains(buf.String(), "recoveries: 0") {
		t.Fatalf("deadlock-free design recovered:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "recovery @ cycle") {
		t.Fatalf("unexpected recovery event on deadlock-free design:\n%s", buf.String())
	}
}

// TestSingleRunRecoveryResumeByteIdentical parks the fig9 run mid-recovery
// — after the victim purge, before the retransmission lands — and checks
// that a fresh run seeking the Mark reaches the same state and renders a
// report stream (recovery line included) byte-identical to the
// uninterrupted run.
func TestSingleRunRecoveryResumeByteIdentical(t *testing.T) {
	spec := fig9Single(true, 0)
	var want bytes.Buffer
	wantOut, err := RunSingle(spec, &want)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want.String(), "recovery @ cycle") {
		t.Fatalf("fixture too tame — no recovery to interrupt:\n%s", want.String())
	}

	var junk bytes.Buffer
	r, err := NewSingleRun(spec, &junk)
	if err != nil {
		t.Fatal(err)
	}
	for r.reportedRecov == 0 {
		if r.Step() {
			t.Fatalf("run finished at cycle %d without a recovery", r.Cycle())
		}
	}
	// A few cycles into the post-purge window: the victim is purged and its
	// retransmission is scheduled but not yet re-sent.
	for i := 0; i < 4; i++ {
		if r.Step() {
			t.Fatalf("run finished at cycle %d, inside the recovery window", r.Cycle())
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
}

// recoveryCampaign is the fig9 scenario swept as a full campaign: every
// placement of a *second* fault on top of the preset one.
func recoveryCampaign(parallel int) Config {
	return Config{
		Shape:       geom.MustShape(4, 4),
		SXB:         geom.Coord{0, 0},
		DXB:         geom.Coord{0, 3},
		DXBSeparate: true,
		Preset:      []fault.Fault{fault.RouterFault(geom.Coord{2, 1})},
		Epochs:      []int64{40},
		Patterns:    []Pattern{Pair(geom.Coord{0, 1}, geom.Coord{2, 2}, 2)},
		Waves:       2,
		Gap:         30,
		PacketSize:  24,
		Broadcasts:  []Broadcast{{Cycle: 0, Src: geom.Coord{3, 2}, Size: 24}},
		Inject:      inject.Options{Retransmit: true, RetryAfter: 32, StallThreshold: 256},
		Recovery:    recovery.Options{Enabled: true, StallThreshold: 256},
		Horizon:     20_000,
		Parallel:    parallel,
	}
}

// TestRecoveryCampaignGracefulAndByteIdentical sweeps a second fault over the
// fig9 scenario under recovery: no cell may wedge silently, the per-pair
// reachability classification must predict every refusal, exactly-once
// accounting must balance, and the whole report must be byte-identical at
// -parallel 1 and 4.
func TestRecoveryCampaignGracefulAndByteIdentical(t *testing.T) {
	serial, err := Run(recoveryCampaign(1))
	if err != nil {
		t.Fatal(err)
	}
	// The preset fault occupies one router placement, so the grid covers
	// every placement except it.
	if got, want := len(serial.Cells), 16+8-1; got != want {
		t.Fatalf("cells = %d, want %d", got, want)
	}
	if serial.Recoveries() == 0 {
		t.Fatalf("no cell recovered — fixture lost its deadlock:\n%s", serial.String())
	}
	if serial.Livelocked() != 0 {
		t.Fatalf("livelocked cells:\n%s", serial.String())
	}
	for _, c := range serial.Cells {
		if c.Stalled && !c.Deadlocked {
			t.Errorf("cell %v@%d: wedged without a wait cycle", c.Fault, c.Epoch)
		}
		if c.Deadlocked {
			t.Errorf("cell %v@%d: unrecovered deadlock", c.Fault, c.Epoch)
		}
		if !c.UnreachableAsPredicted {
			t.Errorf("cell %v@%d: refusals unpredicted (refused=%d, source-dead=%d dest-dead=%d unreachable=%d)",
				c.Fault, c.Epoch, c.Refused, c.SourceDeadPairs, c.DestDeadPairs, c.UnreachablePairs)
		}
		if c.Stats.Duplicates != 0 {
			t.Errorf("cell %v@%d: duplicates %+v", c.Fault, c.Epoch, c.Stats)
		}
		// Exactly-once on the unicast pool: DropsOther is broadcast copies
		// the second fault killed in flight — they never entered Accepted.
		st := c.Stats
		final := st.LostUnreachable + st.LostExhausted + st.LostUntraceable
		if c.Drained && c.Delivered+final != c.Accepted {
			t.Errorf("cell %v@%d: exactly-once accounting delivered=%d + final=%d != accepted=%d",
				c.Fault, c.Epoch, c.Delivered, final, c.Accepted)
		}
		if c.BroadcastCopies+st.DropsOther > c.BroadcastCopiesExpected {
			t.Errorf("cell %v@%d: broadcast copies %d + dropped %d exceed expected %d",
				c.Fault, c.Epoch, c.BroadcastCopies, st.DropsOther, c.BroadcastCopiesExpected)
		}
	}
	if !strings.Contains(serial.String(), "dl-recov") {
		t.Fatalf("table missing recovery column:\n%s", serial.String())
	}

	for _, p := range []int{2, 4} {
		again, err := Run(recoveryCampaign(p))
		if err != nil {
			t.Fatal(err)
		}
		if again.String() != serial.String() {
			t.Errorf("parallel=%d report differs from serial\n--- parallel\n%s--- serial\n%s",
				p, again.String(), serial.String())
		}
	}
}

// TestRecoveryCampaignUnifiedDesignZero runs the same sweep on the unified
// D-XB = S-XB design: the deadlock-free guarantee means zero recoveries
// across every cell.
func TestRecoveryCampaignUnifiedDesignZero(t *testing.T) {
	cfg := recoveryCampaign(4)
	cfg.DXBSeparate = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries() != 0 || res.Livelocked() != 0 {
		t.Fatalf("deadlock-free design recovered: recoveries=%d livelocked=%d\n%s",
			res.Recoveries(), res.Livelocked(), res.String())
	}
	if res.Deadlocks() != 0 {
		t.Fatalf("deadlock on unified design:\n%s", res.String())
	}
}

// TestParsePatternPair pins the pair:SRC>DST syntax round-trip and its error
// paths.
func TestParsePatternPair(t *testing.T) {
	p, err := ParsePattern("pair:0,1>2,2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "pair:0,1>2,2" {
		t.Fatalf("round-trip name = %q", p.Name)
	}
	shape := geom.MustShape(4, 4)
	if got := p.Dest(shape, geom.Coord{0, 1}); got != (geom.Coord{2, 2}) {
		t.Fatalf("pair source routes to %v", got)
	}
	if got := p.Dest(shape, geom.Coord{3, 3}); got != (geom.Coord{3, 3}) {
		t.Fatalf("pair bystander routes to %v (want itself)", got)
	}
	for _, bad := range []string{
		"pair:", "pair:0,1", "pair:0,1>", "pair:0,1>2,2>3,3",
		"pair:x,1>2,2", "pair:0,1>2", "pair:-1,1>2,2", "pair:0,1>0,1",
	} {
		if _, err := ParsePattern(bad); err == nil {
			t.Errorf("ParsePattern(%q) accepted", bad)
		}
	}
}

// TestSingleRunPrintsCyclicUnionWitness lands the fault of DR1's
// cyclic-union cell with a unicast and a broadcast in flight: the report
// names the fallback with the cycle length and the in-flight count, and
// prints both witnesses, the refused separate recompile's cycle and the
// union's.
func TestSingleRunPrintsCyclicUnionWitness(t *testing.T) {
	spec := fig9Single(true, 0)
	spec.Preset = nil
	spec.Events = []inject.Event{{Cycle: 8, Fault: fault.RouterFault(geom.Coord{2, 1})}}
	spec.Pattern = Pair(geom.Coord{0, 0}, geom.Coord{3, 3}, 2)
	spec.Waves, spec.Gap = 2, 48
	spec.Reconfig = core.ReconfigOnFault
	var buf bytes.Buffer
	out, err := RunSingle(spec, &buf)
	if err != nil {
		t.Fatal(err)
	}
	report := buf.String()
	if !out.Drained {
		t.Fatalf("run did not drain: %+v\n%s", out, report)
	}
	for _, want := range []string{
		"reconfig: enabled (mode=fault)\n",
		"reconfig @ cycle 8 (fault router@(2,1)): fell back to rebuild-in-place onto epoch 1 [mdx-unified-4x4] (union cyclic (length 6), 2 in flight)\n",
		"  refused mdx-separate-dxb-4x4: cycle [",
		"  union cycle [RTC(0,3).out0 -> ",
		"reconfig: 1 attempts, 0 hot swaps, 1 fallbacks, 1 refusals\n",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}
