package recovery_test

import (
	"errors"
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/inject"
	"sr2201/internal/recovery"
	"sr2201/internal/routing"
)

// fig9rig is the paper's Fig. 9 deadlocking configuration (D-XB != S-XB
// when separate) wired for recovery: a detoured 24-flit p2p around faulty
// router (2,1) crossing a broadcast from (3,2).
type fig9rig struct {
	m   *core.Machine
	inj *inject.Injector
	sup *recovery.Supervisor
}

func newFig9(t *testing.T, separate bool, maxRecoveries int) *fig9rig {
	t.Helper()
	cfg := core.Config{
		Shape:          geom.MustShape(4, 4),
		SXB:            geom.Coord{0, 0},
		StallThreshold: 256,
	}
	if separate {
		cfg.DXB = geom.Coord{0, 3}
		cfg.DXBSeparate = true
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddFault(fault.RouterFault(geom.Coord{2, 1})); err != nil {
		t.Fatal(err)
	}
	inj, err := inject.New(m, nil, inject.Options{Retransmit: true, RetryAfter: 32, StallThreshold: 256})
	if err != nil {
		t.Fatal(err)
	}
	sup := recovery.New(m, inj, recovery.Options{Enabled: true, StallThreshold: 256, MaxRecoveries: maxRecoveries})
	return &fig9rig{m: m, inj: inj, sup: sup}
}

func (r *fig9rig) inject(t *testing.T, offset int) {
	t.Helper()
	if _, err := r.m.Send(geom.Coord{0, 1}, geom.Coord{2, 2}, 24); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < offset; i++ {
		r.m.Step()
	}
	if _, _, err := r.m.Broadcast(geom.Coord{3, 2}, 24); err != nil {
		t.Fatal(err)
	}
}

// run steps until drained or a decided verdict, within budget.
func (r *fig9rig) run(t *testing.T, budget int) bool {
	t.Helper()
	for i := 0; i < budget; i++ {
		if r.m.Engine().Quiescent() && !r.inj.Pending() {
			return true
		}
		if r.sup.Verdict().Decided {
			return false
		}
		r.m.Step()
	}
	t.Fatalf("run exceeded %d-cycle budget (cycle %d)", budget, r.m.Cycle())
	return false
}

// TestFig9DeadlockRecovered drives the deadlock-prone configuration to
// completion: the wait cycle is confirmed, the lowest-ID packet on it (the
// detoured p2p, pkt 1) is sacrificed, the broadcast drains, and the victim
// is retransmitted and delivered exactly once.
func TestFig9DeadlockRecovered(t *testing.T) {
	recovered := 0
	for off := 0; off <= 10; off++ {
		r := newFig9(t, true, 0)
		r.inject(t, off)
		if !r.run(t, 200_000) {
			t.Fatalf("offset %d: verdict %+v instead of drain", off, r.sup.Verdict())
		}
		if err := r.m.Engine().CheckInvariants(); err != nil {
			t.Fatalf("offset %d: invariants after recovery: %v", off, err)
		}
		st := r.inj.Stats()
		sst := r.sup.Stats()
		if st.Duplicates != 0 {
			t.Fatalf("offset %d: %d duplicate deliveries", off, st.Duplicates)
		}
		// Exactly-once accounting: 15 broadcast copies + the p2p, whether
		// or not it had to be sacrificed and resent.
		if got := len(r.m.Deliveries()); got != 16 {
			t.Fatalf("offset %d: %d deliveries, want 16", off, got)
		}
		if sst.Recoveries == 0 {
			if st.Victims != 0 || st.Retransmits != 0 {
				t.Fatalf("offset %d: no recoveries but victims=%d retx=%d", off, st.Victims, st.Retransmits)
			}
			continue
		}
		recovered++
		ev := r.sup.Events()[0]
		if ev.Victim != 1 || !ev.Known || !ev.Retransmit || ev.Attempt != 1 {
			t.Fatalf("offset %d: unexpected first recovery event %+v", off, ev)
		}
		if ev.Src != (geom.Coord{0, 1}) || ev.Dst != (geom.Coord{2, 2}) || ev.Size != 24 {
			t.Fatalf("offset %d: victim header %+v does not name the detoured p2p", off, ev)
		}
		if st.Victims != sst.Recoveries || st.Recovered != 1 {
			t.Fatalf("offset %d: stats %+v / %+v do not balance", off, st, sst)
		}
	}
	if recovered == 0 {
		t.Fatal("no offset deadlocked: the scenario no longer exercises recovery")
	}
}

// TestDeadlockFreeDesignZeroRecoveries runs the same traffic on the
// deadlock-free D-XB = S-XB design: the supervisor must never act.
func TestDeadlockFreeDesignZeroRecoveries(t *testing.T) {
	for off := 0; off <= 10; off++ {
		r := newFig9(t, false, 0)
		r.inject(t, off)
		if !r.run(t, 200_000) {
			t.Fatalf("offset %d: verdict %+v instead of drain", off, r.sup.Verdict())
		}
		sst := r.sup.Stats()
		if sst.StallsDetected != 0 || sst.Recoveries != 0 {
			t.Fatalf("offset %d: deadlock-free design triggered recovery: %+v", off, sst)
		}
		if got := len(r.m.Deliveries()); got != 16 {
			t.Fatalf("offset %d: %d deliveries, want 16", off, got)
		}
	}
}

// TestVictimDeterminism pins the recovery path's determinism: two identical
// runs produce the same per-cycle StateHash stream, the same events and the
// same final state — the victim rule depends only on simulation state.
func TestVictimDeterminism(t *testing.T) {
	trace := func() (hashes []uint64, events []recovery.Event, final uint64) {
		r := newFig9(t, true, 0)
		r.inject(t, 0)
		for i := 0; i < 200_000; i++ {
			if r.m.Engine().Quiescent() && !r.inj.Pending() {
				break
			}
			r.m.Step()
			hashes = append(hashes, r.m.Engine().StateHash())
		}
		return hashes, r.sup.Events(), r.m.Engine().StateHash()
	}
	h1, e1, f1 := trace()
	h2, e2, f2 := trace()
	if len(h1) != len(h2) || f1 != f2 {
		t.Fatalf("runs diverged: %d vs %d cycles, final %016x vs %016x", len(h1), len(h2), f1, f2)
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("StateHash diverged at step %d: %016x vs %016x", i, h1[i], h2[i])
		}
	}
	if len(e1) != len(e2) {
		t.Fatalf("event counts differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, e1[i], e2[i])
		}
	}
	if len(e1) == 0 {
		t.Fatal("scenario produced no recovery events")
	}
}

// TestLivelockEscalation forces the victim to re-deadlock after its
// retransmission (a second broadcast timed into the resend window) with a
// per-packet cap of 1: the second sacrifice attempt must escalate to a
// classified livelock verdict instead of purging forever.
func TestLivelockEscalation(t *testing.T) {
	livelocked := false
	for x := int64(270); x <= 360 && !livelocked; x++ {
		r := newFig9(t, true, 1)
		r.inject(t, 0)
		for i := 0; i < 200_000; i++ {
			if r.m.Cycle() == x {
				if _, _, err := r.m.Broadcast(geom.Coord{3, 2}, 24); err != nil {
					t.Fatal(err)
				}
			}
			if r.m.Engine().Quiescent() && !r.inj.Pending() {
				break
			}
			if r.sup.Verdict().Decided {
				break
			}
			r.m.Step()
		}
		v := r.sup.Verdict()
		if !v.Livelocked {
			continue
		}
		livelocked = true
		if !v.Decided || !v.Deadlocked {
			t.Fatalf("x=%d: inconsistent livelock verdict %+v", x, v)
		}
		if !errors.Is(v.Err(), recovery.ErrLivelock) {
			t.Fatalf("x=%d: verdict error %v, want ErrLivelock", x, v.Err())
		}
		if got := r.sup.Stats().Recoveries; got != 1 {
			t.Fatalf("x=%d: %d recoveries before escalation, want exactly the cap (1)", x, got)
		}
		if len(v.Report.Cycle) == 0 {
			t.Fatalf("x=%d: livelock verdict carries no wait cycle", x)
		}
	}
	if !livelocked {
		t.Fatal("no second-broadcast timing produced a livelock; the cap escalation is untested")
	}
}

// TestAnalyzeReachability classifies a shift+5 pattern against one- and
// two-fault topologies and cross-checks every prediction against the NIA's
// actual send verdicts.
func TestAnalyzeReachability(t *testing.T) {
	shape := geom.MustShape(4, 4)
	pat := func(src geom.Coord) geom.Coord {
		return shape.CoordOf((shape.Index(src) + 5) % shape.Size())
	}

	build := func(fs ...fault.Fault) *core.Machine {
		m, err := core.NewMachine(core.Config{Shape: shape})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs {
			if err := m.AddFault(f); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}

	// Single fault: the paper's guarantee — every live pair is served (the
	// only refusals name the dead PE itself).
	one := build(fault.RouterFault(geom.Coord{2, 1}))
	r1 := recovery.AnalyzeReachability(one, pat)
	if r1.Unreachable != 0 {
		t.Fatalf("single fault: %d live pairs unreachable, want 0 (detour guarantee)", r1.Unreachable)
	}
	if r1.SourceDead != 1 || r1.DestDead != 1 {
		t.Fatalf("single fault: srcDead=%d dstDead=%d, want 1/1", r1.SourceDead, r1.DestDead)
	}

	// Second fault (an XB line) breaks detours: live pairs become
	// unreachable and the analyzer must predict exactly which.
	two := build(fault.RouterFault(geom.Coord{2, 1}), fault.XBFault(geom.LineOf(geom.Coord{0, 0}, 1)))
	r2 := recovery.AnalyzeReachability(two, pat)
	if r2.Unreachable == 0 {
		t.Fatal("two faults: no live pair unreachable; scenario lost its point")
	}
	if got := r2.Reachable + r2.SourceDead + r2.DestDead + r2.Unreachable; got != shape.Size() {
		t.Fatalf("classes sum to %d, want %d", got, shape.Size())
	}
	if got, want := len(r2.Pairs), r2.SourceDead+r2.DestDead+r2.Unreachable; got != want {
		t.Fatalf("%d pairs listed, want %d", got, want)
	}

	// Ground truth: issue every live send and compare refusals pair by
	// pair.
	denied := 0
	byPair := map[[2]geom.Coord]recovery.PairClass{}
	for _, p := range r2.Pairs {
		byPair[[2]geom.Coord{p.Src, p.Dst}] = p.Class
	}
	shape.Enumerate(func(src geom.Coord) bool {
		dst := pat(src)
		if dst.Equal(src) || !two.Alive(src) {
			return true
		}
		_, err := two.Send(src, dst, 4)
		class, listed := byPair[[2]geom.Coord{src, dst}]
		if err != nil {
			denied++
			if !errors.Is(err, routing.ErrUnreachable) {
				t.Fatalf("%v -> %v: refused with %v, not ErrUnreachable", src, dst, err)
			}
			if !listed || (class != recovery.PairDestDead && class != recovery.PairUnreachable) {
				t.Fatalf("%v -> %v refused but classified %v", src, dst, class)
			}
		} else if listed && class != recovery.PairSourceDead {
			t.Fatalf("%v -> %v accepted but classified %v", src, dst, class)
		}
		return true
	})
	if denied != r2.Denied() {
		t.Fatalf("observed %d refusals, predicted %d", denied, r2.Denied())
	}
}
