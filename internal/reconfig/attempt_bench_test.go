package reconfig

import (
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
)

// attemptRig is the benchmark ledger's reconfiguration job in miniature: a
// 6x6 unified machine in fault mode with a shift+5 wave a few cycles into
// the network, about to lose router (3,2). The fault lands off most routes
// and off the S line, so the attempt is the common case: candidate
// certified, every generation found already on its lines, nothing
// committed.
func attemptRig(tb testing.TB) (*core.Machine, *Manager, fault.Fault) {
	tb.Helper()
	shape := geom.MustShape(6, 6)
	m, err := core.NewMachine(core.Config{Shape: shape, Reconfig: core.ReconfigOnFault})
	if err != nil {
		tb.Fatal(err)
	}
	mgr, err := New(m)
	if err != nil {
		tb.Fatal(err)
	}
	n := shape.Size()
	for i := 0; i < n; i++ {
		if _, err := m.Send(shape.CoordOf(i), shape.CoordOf((i+5)%n), 16); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		m.Step()
	}
	return m, mgr, fault.RouterFault(geom.Coord{3, 2})
}

// cyclicUnionRig is the Fig. 9 interaction in miniature: the 4x4
// separate-D-XB machine in fault mode with a unicast and a broadcast in
// flight, about to lose router (2,1). The separate recompile is refused
// with a concrete cycle witness, and the unified candidate is admissible
// but its union with the retiring generation's edges is cyclic, so the
// attempt falls back.
func cyclicUnionRig(tb testing.TB) (*core.Machine, *Manager, fault.Fault) {
	tb.Helper()
	m, err := core.NewMachine(core.Config{
		Shape:          geom.MustShape(4, 4),
		SXB:            geom.Coord{0, 0},
		DXB:            geom.Coord{0, 3},
		DXBSeparate:    true,
		StallThreshold: 256,
		Reconfig:       core.ReconfigOnFault,
	})
	if err != nil {
		tb.Fatal(err)
	}
	mgr, err := New(m)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := m.Send(geom.Coord{0, 0}, geom.Coord{3, 3}, 24); err != nil {
		tb.Fatal(err)
	}
	if _, _, err := m.Broadcast(geom.Coord{3, 2}, 24); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		m.Step()
	}
	return m, mgr, fault.RouterFault(geom.Coord{2, 1})
}

// failAround lands the fault with around wrapped about the manager's
// attempt, and checks the attempt had the outcome the rig is built for,
// with packets still in flight.
func failAround(tb testing.TB, m *core.Machine, mgr *Manager, f fault.Fault, outcome string, around func(attempt func())) {
	tb.Helper()
	m.SetReconfigurer(func(f fault.Fault) (err error) {
		around(func() { err = mgr.attempt(TriggerFault, f) })
		return err
	})
	if _, err := m.FailNow(f); err != nil {
		tb.Fatal(err)
	}
	if evs := mgr.Events(); len(evs) != 1 || evs[0].Outcome != outcome || m.Engine().Quiescent() {
		tb.Fatalf("events %+v, want one %s with packets in flight", evs, outcome)
	}
}

// BenchmarkReconfigAttempt is the in-repo counterpart of the ledger's
// campaign.run_single_reconfig_ms_p50 minus the simulation around it: one
// Manager.attempt on 6x6 with a wave in flight.
func BenchmarkReconfigAttempt(b *testing.B) {
	b.ReportAllocs()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		m, mgr, f := attemptRig(b)
		failAround(b, m, mgr, f, OutcomeUnchanged, func(attempt func()) {
			b.StartTimer()
			attempt()
			b.StopTimer()
		})
	}
}
