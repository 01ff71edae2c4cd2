package campaign

// Adversarial wall for the escape-VC machine at the campaign layer. Two
// claims are locked down here, where the recovery supervisor is actually
// wired in (RunCell/RunSingle arm it; the core tests cannot see it):
//
//   - Liveness under contention: an adaptive machine driven with the most
//     cycle-prone traffic we have — full-reversal permutation, deep packets,
//     waves packed close, a hair-trigger recovery supervisor armed — drains
//     with exactly-once delivery and ZERO recovery interventions. Deadlock
//     freedom comes from the certified escape channel, never from sacrifice.
//
//   - Degenerate-lane equivalence: VCs=1 is byte-identical to the pre-VC
//     machine in every artifact a user can observe — campaign reports,
//     single-run report streams, outcomes — at every parallel level. The VC
//     layer is provably inert until a second lane exists.

import (
	"bytes"
	"fmt"
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
	"sr2201/internal/recovery"
)

// adaptiveContention is the adversarial adaptive cell: a 4x4 two-lane
// machine under full-reversal traffic with deep packets and tightly packed
// waves, so adaptive lanes fight over every productive output. The recovery
// supervisor is armed with a stall threshold far below the drain time — if
// the escape argument ever broke, it would fire and the test would see the
// sacrifice in Recoveries.
func adaptiveContention(faulted bool) Spec {
	sp := Spec{
		Shape:          geom.MustShape(4, 4),
		Pattern:        Reverse(),
		Waves:          6,
		Gap:            4,
		PacketSize:     48,
		VCs:            2,
		Adaptive:       true,
		Inject:         inject.Options{Retransmit: true, RetryAfter: 64, StallThreshold: 512},
		Recovery:       recovery.Options{Enabled: true, StallThreshold: 64},
		KeepDeliveries: true,
		Horizon:        30_000,
	}
	if faulted {
		sp.Preset = []fault.Fault{fault.RouterFault(geom.Coord{2, 1})}
		sp.Broadcasts = []Broadcast{{Cycle: 8, Src: geom.Coord{3, 2}, Size: 24}}
	}
	return sp
}

// countAdaptive counts deliveries that took at least one non-escape hop.
func countAdaptive(c CellResult) int {
	n := 0
	for _, d := range c.Deliveries {
		if d.Adaptive {
			n++
		}
	}
	return n
}

// TestAdaptiveContentionNeverRecovers is the liveness half of the escape-VC
// argument, tested adversarially: maximum lane contention, a hair-trigger
// supervisor, and (in the faulted variant) the Fig. 9 fault plus a crossing
// broadcast. Every variant must drain exactly-once with zero recoveries,
// and the adaptive lanes must demonstrably carry traffic — a run that
// quietly collapsed onto the escape lane proves nothing.
func TestAdaptiveContentionNeverRecovers(t *testing.T) {
	for _, tc := range []struct {
		name    string
		faulted bool
	}{
		{"fault-free", false},
		{"fig9-fault-and-broadcast", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := RunCell(adaptiveContention(tc.faulted))
			if err != nil {
				t.Fatal(err)
			}
			if !c.Drained || c.Deadlocked || c.Stalled || c.Livelocked {
				t.Fatalf("adaptive machine wedged: drained=%v deadlocked=%v stalled=%v livelocked=%v (end cycle %d)",
					c.Drained, c.Deadlocked, c.Stalled, c.Livelocked, c.EndCycle)
			}
			if c.Recoveries != 0 {
				t.Fatalf("supervisor fired %d time(s) — the escape channel did not keep the machine live", c.Recoveries)
			}
			st := c.Stats
			if st.Duplicates != 0 || st.LostExhausted != 0 || st.LostUntraceable != 0 || st.DropsOther != 0 {
				t.Fatalf("loss accounting dirty: %+v", st)
			}
			if c.Delivered != c.Accepted {
				t.Fatalf("exactly-once broken: delivered %d of %d accepted", c.Delivered, c.Accepted)
			}
			if c.BroadcastCopies != c.BroadcastCopiesExpected {
				t.Fatalf("broadcast fan incomplete: %d of %d copies", c.BroadcastCopies, c.BroadcastCopiesExpected)
			}
			if n := countAdaptive(c); n == 0 {
				t.Fatal("no delivery took an adaptive lane — the contention fixture degenerated to escape-only")
			} else {
				t.Logf("%d of %d deliveries took an adaptive lane; drained at cycle %d, 0 recoveries", n, c.Delivered, c.EndCycle)
			}
		})
	}
}

// TestSingleLaneCampaignBytesIdentical pins the degenerate-lane guarantee on
// the campaign artifact itself: the recovery sweep's full report with
// VCs=1 must match the pre-VC (VCs=0) report byte for byte, at serial and
// parallel execution.
func TestSingleLaneCampaignBytesIdentical(t *testing.T) {
	base, err := Run(recoveryCampaign(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		parallel int
	}{
		{"serial", 1},
		{"parallel-2", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := recoveryCampaign(tc.parallel)
			cfg.VCs = 1
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != base.String() {
				t.Errorf("VCs=1 report differs from pre-VC baseline\n--- vcs=1 (%s)\n%s--- baseline\n%s",
					tc.name, got.String(), base.String())
			}
		})
	}
}

// TestSingleLaneSingleRunBytesIdentical does the same for the single-run
// report stream — the artifact mdxfault -single prints — including the
// recovery narrative of the deadlocking Fig. 9 design.
func TestSingleLaneSingleRunBytesIdentical(t *testing.T) {
	for _, separate := range []bool{false, true} {
		var want bytes.Buffer
		wantOut, err := RunSingle(fig9Single(separate, 0), &want)
		if err != nil {
			t.Fatal(err)
		}
		spec := fig9Single(separate, 0)
		spec.VCs = 1
		var got bytes.Buffer
		gotOut, err := RunSingle(spec, &got)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("separate=%v: VCs=1 report differs\n--- vcs=1\n%s--- baseline\n%s",
				separate, got.String(), want.String())
		}
		if fmt.Sprintf("%+v", gotOut) != fmt.Sprintf("%+v", wantOut) {
			t.Errorf("separate=%v: outcome differs: %+v != %+v", separate, gotOut, wantOut)
		}
	}
}

// TestAdaptiveCampaignParallelInvariant extends the determinism pin to the
// adaptive machine: the adaptive recovery sweep renders byte-identically at
// every parallel level. (The adaptive sweep differs from the
// static one — lanes change drain times — so it is compared against its own
// serial rendering, not the static baseline.)
func TestAdaptiveCampaignParallelInvariant(t *testing.T) {
	adaptive := func(parallel int) Config {
		cfg := recoveryCampaign(parallel)
		cfg.DXBSeparate = false
		cfg.DXB = geom.Coord{}
		cfg.VCs = 2
		cfg.Adaptive = true
		return cfg
	}
	base, err := Run(adaptive(1))
	if err != nil {
		t.Fatal(err)
	}
	if base.Recoveries() != 0 || base.Deadlocks() != 0 || base.Livelocked() != 0 {
		t.Fatalf("adaptive sweep not clean: recoveries=%d deadlocks=%d livelocked=%d\n%s",
			base.Recoveries(), base.Deadlocks(), base.Livelocked(), base.String())
	}
	for _, parallel := range []int{2, 4} {
		got, err := Run(adaptive(parallel))
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != base.String() {
			t.Errorf("parallel=%d: adaptive report differs from serial\n--- got\n%s--- serial\n%s",
				parallel, got.String(), base.String())
		}
	}
}
