package campaign

import (
	"bytes"
	"strings"
	"testing"

	"sr2201/internal/deadlock"
	"sr2201/internal/recovery"
)

// fig9WaitCycle is the exact wait cycle the analyzer must find in the
// paper's Fig. 9 configuration: the broadcast (pkt 2) holds S-XB(0,0) and
// D-XB-row outputs while starved of its own flits, the detoured unicast
// (pkt 1) holds the detour path while credit-stalled behind it, and the
// two close a ten-edge loop across both crossbar planes.
const fig9WaitCycle = `DEADLOCK: wait cycle of length 10
  pkt2 at RTC(0,0).in0 credit-stalled into XB1(0,0).in0
  pkt2 at XB1(0,0).in0 wants XB1(0,0).out3 owned by packet at XB1(0,0).in1
  pkt1 at XB1(0,0).in1 credit-stalled into RTC(0,3).in1
  pkt1 at RTC(0,3).in1 credit-stalled into XB0(0,3).in0
  pkt1 at XB0(0,3).in0 credit-stalled into RTC(2,3).in0
  pkt1 at RTC(2,3).in0 credit-stalled into XB1(2,0).in3
  pkt1 at XB1(2,0).in3 wants XB1(2,0).out2 owned by packet at XB1(2,0).in0
  pkt2 at XB1(2,0).in0 starved of flits from RTC(2,0).in0
  pkt2 at RTC(2,0).in0 starved of flits from XB0(0,0).in3
  pkt2 at XB0(0,0).in3 credit-stalled into RTC(0,0).in0
`

// fig9Analyze drives the bare (recovery-off) Fig. 9 run into its deadlock
// and returns the analyzer's report.
func fig9Analyze(t *testing.T) (deadlock.Report, int64) {
	t.Helper()
	spec := fig9Single(true, 0)
	spec.Recovery = recovery.Options{}
	var buf bytes.Buffer
	r, err := NewSingleRun(spec, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for !r.Step() {
	}
	out, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Deadlocked || out.Drained {
		t.Fatalf("fig9 bare run did not deadlock: %+v\n%s", out, buf.String())
	}
	return deadlock.Analyze(r.Cell().Machine().Engine()), r.Cycle()
}

// TestAnalyzeFig9GoldenWaitCycle pins the analyzer's verdict on the paper's
// Fig. 9 deadlock, edge for edge: detection cycle, cycle length, the
// participating packets, and the rendered dependency chain. Any change to
// the wait-for graph construction, the DFS, or the machine's arbitration
// that alters the diagnosed cycle shows up here as a diff against the
// golden text.
func TestAnalyzeFig9GoldenWaitCycle(t *testing.T) {
	rep, cycle := fig9Analyze(t)
	if !rep.Deadlocked {
		t.Fatalf("analyzer missed the wait cycle: %s", rep.Describe())
	}
	if cycle != 272 {
		t.Errorf("deadlock detected at cycle %d, golden is 272", cycle)
	}
	if len(rep.Cycle) != 10 {
		t.Errorf("wait cycle length %d, golden is 10:\n%s", len(rep.Cycle), rep.Describe())
	}
	// The victim the recovery layer would select: the lowest packet id on
	// the cycle is the detoured unicast, pkt 1.
	if victim, ok := rep.Victim(); !ok || victim != 1 {
		t.Errorf("victim (min packet id on cycle) = %d (ok=%v), golden is 1", victim, ok)
	}
	if got := rep.Describe(); got != fig9WaitCycle {
		t.Errorf("wait cycle diverged from golden:\n--- got\n%s--- golden\n%s", got, fig9WaitCycle)
	}
}

// TestAnalyzeFig9Deterministic runs the analysis twice: the diagnosed
// cycle (and its rendering) must not depend on map iteration or run-to-run
// scheduling.
func TestAnalyzeFig9Deterministic(t *testing.T) {
	a, _ := fig9Analyze(t)
	b, _ := fig9Analyze(t)
	if a.Describe() != b.Describe() {
		t.Errorf("repeated analysis diverged:\n--- first\n%s--- second\n%s", a.Describe(), b.Describe())
	}
	if len(a.Edges) != len(b.Edges) || len(a.Blocked) != len(b.Blocked) {
		t.Errorf("wait-for graph size diverged: %d/%d edges, %d/%d blocked",
			len(a.Edges), len(b.Edges), len(a.Blocked), len(b.Blocked))
	}
	if !strings.Contains(a.Describe(), "DEADLOCK") {
		t.Errorf("describe lost its verdict line:\n%s", a.Describe())
	}
}
