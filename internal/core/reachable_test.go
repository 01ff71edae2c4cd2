package core_test

import (
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
)

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkReachable holds m.Reachable to want over every ordered pair of the
// machine's shape, down to the refusal's text.
func checkReachable(t *testing.T, m *core.Machine, what string, want func(src, dst geom.Coord) error) {
	t.Helper()
	m.Shape().Enumerate(func(src geom.Coord) bool {
		m.Shape().Enumerate(func(dst geom.Coord) bool {
			if got, want := m.Reachable(src, dst), want(src, dst); errText(got) != errText(want) {
				t.Fatalf("%s %v->%v: Reachable = %v, want %v", what, src, dst, got, want)
			}
			return true
		})
		return !t.Failed()
	})
}

// TestReachablePrecheckMatchesWalk holds the send precheck, the plain-route
// test in front of the walk, to the walk alone on the 2-lane adaptive 4x4x4
// under every single router fault.
func TestReachablePrecheckMatchesWalk(t *testing.T) {
	shape := geom.MustShape(4, 4, 4)
	shape.Enumerate(func(r geom.Coord) bool {
		m, err := core.NewMachine(core.Config{Shape: shape, VCs: 2, Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddFault(fault.RouterFault(r)); err != nil {
			t.Fatal(err)
		}
		checkReachable(t, m, "router@"+r.String(), m.WalkReachable)
		return !t.Failed()
	})
}

// TestRestoredMachineReachable pins that a restored machine, whose fault set
// is rebuilt from the snapshot's list, serves and refuses the same pairs.
func TestRestoredMachineReachable(t *testing.T) {
	cfg := core.Config{Shape: geom.MustShape(4, 4, 4), VCs: 2, Adaptive: true}
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []fault.Fault{fault.RouterFault(geom.Coord{1, 2, 3}), fault.XBFault(geom.LineOf(geom.Coord{0, 3, 1}, 2))} {
		if err := m.AddFault(f); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	checkReachable(t, restored, "restored", m.Reachable)
}
