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
// certified, the retiring generation found to route as the candidate does,
// hot swap.
func attemptRig(tb testing.TB) (*core.Machine, *Manager, fault.Fault) {
	tb.Helper()
	shape := geom.MustShape(6, 6)
	m, err := core.NewMachine(core.Config{Shape: shape, Reconfig: core.ReconfigOnFault})
	if err != nil {
		tb.Fatal(err)
	}
	mgr, err := New(m, Options{})
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

// failAround lands the fault with around wrapped about the manager's
// attempt, and checks the attempt was the hot swap the rig is built for.
func failAround(tb testing.TB, m *core.Machine, mgr *Manager, f fault.Fault, around func(attempt func())) {
	tb.Helper()
	m.SetReconfigurer(func(f fault.Fault) (err error) {
		around(func() { err = mgr.attempt(TriggerFault, f) })
		return err
	})
	if _, err := m.FailNow(f); err != nil {
		tb.Fatal(err)
	}
	if evs := mgr.Events(); len(evs) != 1 || evs[0].Outcome != OutcomeHotSwap || evs[0].InFlight == 0 {
		tb.Fatalf("events %+v, want one hot swap with packets in flight", evs)
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
		failAround(b, m, mgr, f, func(attempt func()) {
			b.StartTimer()
			attempt()
			b.StopTimer()
		})
	}
}
