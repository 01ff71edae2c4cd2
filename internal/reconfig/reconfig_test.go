package reconfig_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/engine"
	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
	"sr2201/internal/reconfig"
	"sr2201/internal/recovery"
	"sr2201/internal/routing"
)

// newRig builds a 4x4 machine with online reconfiguration in the given mode.
// separate selects the paper's deadlock-prone Fig. 9 variant (D-XB != S-XB).
func newRig(t *testing.T, separate bool, mode string) (*core.Machine, *reconfig.Manager) {
	t.Helper()
	cfg := core.Config{
		Shape:          geom.MustShape(4, 4),
		SXB:            geom.Coord{0, 0},
		StallThreshold: 256,
		Reconfig:       mode,
	}
	if separate {
		cfg.DXB = geom.Coord{0, 3}
		cfg.DXBSeparate = true
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := reconfig.New(m)
	if err != nil {
		t.Fatal(err)
	}
	return m, mgr
}

func drainMachine(t *testing.T, m *core.Machine, budget int) {
	t.Helper()
	for i := 0; i < budget; i++ {
		if m.Engine().Quiescent() {
			return
		}
		m.Step()
	}
	t.Fatalf("machine did not drain within %d cycles", budget)
}

// TestNewNeedsReconfigMode pins the constructor guard: a manager cannot
// attach to a machine built without Config.Reconfig.
func TestNewNeedsReconfigMode(t *testing.T) {
	m, err := core.NewMachine(core.Config{Shape: geom.MustShape(4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reconfig.New(m); err == nil {
		t.Fatal("New accepted a machine without Config.Reconfig")
	}
}

// TestHotSwapOnFault lands a mid-run router fault on the unified machine
// with one unicast in flight away from the dead router: the recompiled
// table's union graph is acyclic, so the swap commits without touching a
// packet, and the in-flight packet still delivers under its old generation.
func TestHotSwapOnFault(t *testing.T) {
	m, mgr := newRig(t, false, core.ReconfigOnFault)
	if _, err := m.Send(geom.Coord{0, 0}, geom.Coord{3, 3}, 24); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		m.Step()
	}
	lost, err := m.FailNow(fault.RouterFault(geom.Coord{2, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 0 {
		t.Fatalf("fault away from the route killed %d packets", len(lost))
	}
	evs := mgr.Events()
	if len(evs) != 1 {
		t.Fatalf("%d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Outcome != reconfig.OutcomeHotSwap || ev.Epoch != 1 {
		t.Fatalf("unexpected event %+v, want hot swap to epoch 1", ev)
	}
	if !ev.Union.Acyclic || ev.Union.Channels == 0 {
		t.Fatalf("hot swap without an acyclic union certificate: %+v", ev.Union)
	}
	if ev.InFlight == 0 {
		t.Fatal("hot swap saw no in-flight packets; scenario lost its point")
	}
	if m.Epoch() != 1 {
		t.Fatalf("machine epoch %d, want 1", m.Epoch())
	}
	if n := len(m.Generations()); n != 2 {
		t.Fatalf("%d generations, want 2 (retiring pinned by the in-flight packet)", n)
	}
	st := mgr.Stats()
	if st.Attempts != 1 || st.HotSwaps != 1 || st.Fallbacks != 0 {
		t.Fatalf("stats %+v do not record one hot swap", st)
	}
	drainMachine(t, m, 10_000)
	if err := m.Engine().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Deliveries()); got != 1 {
		t.Fatalf("%d deliveries, want 1 (the old-generation packet)", got)
	}
}

// TestSecondFailNowRunsNothing: a switch dies once. FailNow on a router the
// machine already lost is refused before any packet is purged, so no
// reconfiguration attempt runs: the events, the epoch and the fault count
// stay as the first FailNow left them.
func TestSecondFailNowRunsNothing(t *testing.T) {
	m, mgr := newRig(t, false, core.ReconfigOnFault)
	if _, err := m.Send(geom.Coord{0, 0}, geom.Coord{3, 3}, 24); err != nil {
		t.Fatal(err)
	}
	m.Step()
	dead := fault.RouterFault(geom.Coord{2, 0})
	if _, err := m.FailNow(dead); err != nil {
		t.Fatal(err)
	}
	events, epoch, count, stats := len(mgr.Events()), m.Epoch(), m.Faults().Count(), mgr.Stats()
	if events != 1 || epoch != 1 || count != 1 {
		t.Fatalf("first FailNow: %d events, epoch %d, %d faults; want 1, 1, 1", events, epoch, count)
	}
	lost, err := m.FailNow(dead)
	if err == nil || !strings.Contains(err.Error(), "router (2,0) is already faulty") {
		t.Fatalf("second FailNow(%v) = %v, want the set's refusal naming the router", dead, err)
	}
	if len(lost) != 0 {
		t.Errorf("second FailNow purged %d packets", len(lost))
	}
	if len(mgr.Events()) != events || m.Epoch() != epoch || m.Faults().Count() != count || mgr.Stats() != stats {
		t.Errorf("second FailNow changed the machine: %d events, epoch %d, %d faults, stats %+v; want %d, %d, %d, %+v",
			len(mgr.Events()), m.Epoch(), m.Faults().Count(), mgr.Stats(), events, epoch, count, stats)
	}
}

// cyclicUnionFault lands the cyclic-union rig's fault: the separate-D-XB
// variant with both traffic classes in flight, whose separate recompile is
// refused with a concrete cycle witness and whose unified candidate is
// admissible but has a cyclic union with the retiring generation's edges
// (the Fig. 9 interaction). It returns the attempt's one event.
func cyclicUnionFault(t *testing.T) (*core.Machine, *reconfig.Manager, reconfig.Event) {
	t.Helper()
	m, mgr, f := reconfig.CyclicUnionRig(t)
	if _, err := m.FailNow(f); err != nil {
		t.Fatal(err)
	}
	evs := mgr.Events()
	if len(evs) != 1 {
		t.Fatalf("%d events, want 1", len(evs))
	}
	return m, mgr, evs[0]
}

// TestFallbackOnDrainBudget pins the decision on a cyclic union now that
// the manager has no drain budget, that is, purges no packet for a
// transition: it commits the current variant's recompile as the one
// generation for every epoch, names that table on the event, and keeps the
// cyclic union, witness included. On this separate-D-XB machine that
// re-installs the variant the attempt has just refused (ROADMAP 22(b)).
func TestFallbackOnDrainBudget(t *testing.T) {
	m, mgr, ev := cyclicUnionFault(t)
	if ev.Outcome != reconfig.OutcomeFallback {
		t.Fatalf("outcome %q, want fallback", ev.Outcome)
	}
	if len(ev.Refusals) != 1 || ev.Refusals[0].Acyclic || len(ev.Refusals[0].Cycle) == 0 {
		t.Fatalf("separate recompile was not refused with a cycle witness: %+v", ev.Refusals)
	}
	if !strings.Contains(ev.Refusals[0].Scheme, "separate-dxb") {
		t.Fatalf("refusal names scheme %q, want the separate-D-XB recompile", ev.Refusals[0].Scheme)
	}
	if !ev.Candidate.Acyclic || !strings.Contains(ev.Candidate.Scheme, "unified") {
		t.Fatalf("candidate %q (acyclic %v), want the admissible unified degradation", ev.Candidate.Scheme, ev.Candidate.Acyclic)
	}
	if ev.Union.Acyclic || len(ev.Union.Cycle) == 0 {
		t.Fatalf("fallback without a cyclic union witness: %+v", ev.Union)
	}
	if want := fmt.Sprintf("union cyclic (length %d), %d in flight", len(ev.Union.Cycle), ev.InFlight); ev.Reason != want {
		t.Fatalf("fallback reason %q, want %q", ev.Reason, want)
	}
	gens := m.Generations()
	if len(gens) != 1 || gens[0].Boundary != 0 {
		t.Fatalf("fallback kept generations %+v, want one covering every epoch", gens)
	}
	if !m.VariantSeparate() || ev.Scheme != ev.Refusals[0].Scheme {
		t.Fatalf("fallback installed %q (separate %v), want the current variant's recompile %q", ev.Scheme, m.VariantSeparate(), ev.Refusals[0].Scheme)
	}
	if p := gens[0].Policy; p.EffectiveDXB() == p.EffectiveSXB() {
		t.Fatalf("fallback installed D-XB = S-XB = %v, want the current separate variant", p.EffectiveSXB())
	}
	if m.Epoch() != 1 || ev.Epoch != 1 {
		t.Fatalf("machine epoch %d, event epoch %d; want both 1", m.Epoch(), ev.Epoch)
	}
	if st := mgr.Stats(); st.Attempts != 1 || st.HotSwaps != 0 || st.Fallbacks != 1 || st.Refusals != 1 {
		t.Fatalf("stats %+v do not record one fallback after one refusal", st)
	}
}

// TestDrainOnCyclicUnion follows the packets in flight at the same cyclic
// union's decision: none is purged, and each drains by delivery under the
// rebuilt table.
func TestDrainOnCyclicUnion(t *testing.T) {
	m, _, ev := cyclicUnionFault(t)
	hdrs, unknown := m.Engine().InFlightHeaders()
	if ev.InFlight < 2 || len(hdrs)+len(unknown) != ev.InFlight {
		t.Fatalf("%d packets in flight after the fallback, %d at the decision; want both classes, none purged", len(hdrs)+len(unknown), ev.InFlight)
	}
	pending := make(map[uint64]bool, ev.InFlight)
	for _, h := range hdrs {
		pending[h.PacketID] = true
	}
	for _, id := range unknown {
		pending[id] = true
	}
	drainMachine(t, m, 10_000)
	if err := m.Engine().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, d := range m.Deliveries() {
		delete(pending, d.PacketID)
	}
	if len(pending) != 0 {
		t.Fatalf("packets %v in flight at the fallback never delivered", pending)
	}
}

// TestDeadlockTriggeredSwap runs the full Fig. 9 deadlock under mode
// "both": the preset-fault run (no mid-run fault) deadlocks once, the
// supervisor purges the victim and hands off to the manager, which refuses
// the separate recompile (witness), hot-swaps to the unified table, and the
// run drains with zero further recoveries.
func TestDeadlockTriggeredSwap(t *testing.T) {
	deadlocked := false
	for off := 0; off <= 10 && !deadlocked; off++ {
		m, mgr := newRig(t, true, core.ReconfigBoth)
		if err := m.AddFault(fault.RouterFault(geom.Coord{2, 1})); err != nil {
			t.Fatal(err)
		}
		inj, err := inject.New(m, nil, inject.Options{Retransmit: true, RetryAfter: 32, StallThreshold: 256})
		if err != nil {
			t.Fatal(err)
		}
		sup := recovery.New(m, inj, recovery.Options{Enabled: true, StallThreshold: 256})
		sup.OnDeadlock(mgr.OnDeadlock)

		if _, err := m.Send(geom.Coord{0, 1}, geom.Coord{2, 2}, 24); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < off; i++ {
			m.Step()
		}
		if _, _, err := m.Broadcast(geom.Coord{3, 2}, 24); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200_000; i++ {
			if m.Engine().Quiescent() && !inj.Pending() {
				break
			}
			if sup.Verdict().Decided {
				t.Fatalf("off %d: verdict %+v instead of reconfiguration", off, sup.Verdict())
			}
			m.Step()
		}
		if err := mgr.Err(); err != nil {
			t.Fatalf("off %d: deferred manager error: %v", off, err)
		}
		if sup.Stats().Recoveries == 0 {
			continue // this offset never deadlocked
		}
		deadlocked = true
		if sup.Stats().Recoveries != 1 {
			t.Fatalf("off %d: %d recoveries, want exactly 1 (pre-swap)", off, sup.Stats().Recoveries)
		}
		evs := mgr.Events()
		if len(evs) != 1 || evs[0].Trigger != reconfig.TriggerDeadlock {
			t.Fatalf("off %d: events %+v, want one deadlock-triggered attempt", off, evs)
		}
		if len(evs[0].Refusals) != 1 || len(evs[0].Refusals[0].Cycle) == 0 {
			t.Fatalf("off %d: separate recompile not refused with witness: %+v", off, evs[0].Refusals)
		}
		if evs[0].Outcome == reconfig.OutcomeFallback {
			t.Fatalf("off %d: attempt fell back (%s)", off, evs[0].Reason)
		}
		// Exactly-once delivery: 15 broadcast copies + the recovered p2p.
		if got := len(m.Deliveries()); got != 16 {
			t.Fatalf("off %d: %d deliveries, want 16", off, got)
		}
		if err := m.Engine().CheckInvariants(); err != nil {
			t.Fatalf("off %d: %v", off, err)
		}
	}
	if !deadlocked {
		t.Fatal("no offset deadlocked; the deadlock trigger is untested")
	}
}

// TestFaultModeSkipsDeadlockTrigger pins mode isolation: under mode "fault"
// the deadlock hand-off is a no-op.
func TestFaultModeSkipsDeadlockTrigger(t *testing.T) {
	_, mgr := newRig(t, false, core.ReconfigOnFault)
	mgr.OnDeadlock(42)
	if len(mgr.Events()) != 0 || mgr.Stats().Attempts != 0 {
		t.Fatalf("mode %q acted on a deadlock trigger: %+v", core.ReconfigOnFault, mgr.Events())
	}
}

// TestRetiredGenerationsDecideAsPinned pins the one rule a generation
// follows: its policy keeps the effective S-XB/D-XB lines it was built with
// and reads the machine's live fault set. Router (2,0) dies on the S-XB
// line, so epoch 1 moves the lines to (·,1); router (2,1) then dies on
// those, so epoch 2 moves them to (·,2), and both hot swaps leave their
// retired generations pinned by a packet in flight. Every retired
// generation must then decide every router and crossbar input, header
// class and destination exactly as a policy pinned to its lines against
// the live fault set (routing.NewPinned): the decisions its in-flight
// packets face, and the edges the union proof adds for it. A generation
// that froze the fault bits of its commit would route into the second
// fault.
func TestRetiredGenerationsDecideAsPinned(t *testing.T) {
	m, mgr := newRig(t, false, core.ReconfigOnFault)
	for _, step := range []struct {
		src, dst, dead geom.Coord
	}{
		{geom.Coord{0, 1}, geom.Coord{3, 3}, geom.Coord{2, 0}},
		{geom.Coord{2, 3}, geom.Coord{0, 1}, geom.Coord{2, 1}},
	} {
		if _, err := m.Send(step.src, step.dst, 64); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			m.Step()
		}
		if _, err := m.FailNow(fault.RouterFault(step.dead)); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range mgr.Events() {
		if ev.Outcome != reconfig.OutcomeHotSwap {
			t.Fatalf("event %q, want two hot swaps", ev)
		}
	}
	gens := m.Generations()
	if len(gens) != 3 {
		t.Fatalf("%d generations after two hot swaps, want 3 (both retired ones pinned by a packet in flight)", len(gens))
	}
	for gi, g := range gens {
		if want := (geom.Line{Dim: 0, Fixed: geom.Coord{0, gi}}); g.Policy.EffectiveSXB() != want || g.Policy.EffectiveDXB() != want {
			t.Fatalf("generation %d routes on S-XB %v, D-XB %v; want both %v", gi, g.Policy.EffectiveSXB(), g.Policy.EffectiveDXB(), want)
		}
	}
	shape := m.Shape()
	var hdrs []flit.Header
	shape.Enumerate(func(dst geom.Coord) bool {
		hdrs = append(hdrs, flit.Header{RC: flit.RCNormal, Dst: dst}, flit.Header{RC: flit.RCDetour, Dst: dst, DetourHops: 1})
		return true
	})
	hdrs = append(hdrs, flit.Header{RC: flit.RCBroadcastRequest}, flit.Header{RC: flit.RCBroadcast})
	for gi, g := range gens[:len(gens)-1] {
		pinned, err := routing.NewPinned(m.RoutingConfig(false), g.Policy.EffectiveSXB().Fixed, g.Policy.EffectiveDXB().Fixed)
		if err != nil {
			t.Fatal(err)
		}
		same := func(what string, dA, dB engine.Decision, eA, eB error) {
			t.Helper()
			if fmt.Sprint(eA) != fmt.Sprint(eB) || !slices.Equal(dA.Outs, dB.Outs) || dA.Rewrite != dB.Rewrite || dA.Provisional != dB.Provisional {
				t.Fatalf("generation %d, %s: decides %+v, %v; pinned %+v, %v", gi, what, dA, eA, dB, eB)
			}
		}
		for _, h := range hdrs {
			shape.Enumerate(func(c geom.Coord) bool {
				for in := 0; in <= shape.Dims(); in++ {
					ha, hb := h, h
					dA, eA := g.Policy.RouteRouter(nil, c, in, &ha)
					dB, eB := pinned.RouteRouter(nil, c, in, &hb)
					same(fmt.Sprintf("router %v in %d rc %v dst %v", c, in, h.RC, h.Dst), dA, dB, eA, eB)
				}
				return true
			})
			for _, l := range shape.Lines() {
				for in := 0; in < shape[l.Dim]; in++ {
					ha, hb := h, h
					dA, eA := g.Policy.RouteXB(nil, l, in, &ha)
					dB, eB := pinned.RouteXB(nil, l, in, &hb)
					same(fmt.Sprintf("crossbar %v in %d rc %v dst %v", l, in, h.RC, h.Dst), dA, dB, eA, eB)
				}
			}
		}
	}
}
