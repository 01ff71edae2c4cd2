package core

import (
	"fmt"
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/geom"
)

// runWorkload drives an identical deterministic workload and returns a
// behavioral fingerprint: cycle count, move count and delivery log.
func runWorkload(t *testing.T, tables bool) string {
	t.Helper()
	m := mustMachine(t, Config{Shape: geom.MustShape(4, 4), StallThreshold: 256})
	if err := m.AddFault(fault.RouterFault(geom.Coord{2, 1})); err != nil {
		t.Fatal(err)
	}
	if tables {
		if err := m.UseCompiledTables(); err != nil {
			t.Fatal(err)
		}
	}
	shape := m.Shape()
	shape.Enumerate(func(src geom.Coord) bool {
		dst := shape.CoordOf((shape.Index(src) + 5) % shape.Size())
		_, _ = m.Send(src, dst, 6)
		return true
	})
	if _, _, err := m.Broadcast(geom.Coord{3, 3}, 6); err != nil {
		t.Fatal(err)
	}
	out := m.Run(100_000)
	if !out.Drained {
		t.Fatalf("tables=%v: %+v", tables, out)
	}
	fp := fmt.Sprintf("cycle=%d moves=%d", m.Cycle(), m.Engine().Moves())
	for _, d := range m.Deliveries() {
		fp += fmt.Sprintf("|%d@%v+%d", d.PacketID, d.At, d.Latency)
	}
	return fp
}

// The compiled-table machine must behave cycle-for-cycle identically to the
// algorithmic one on a mixed workload with a fault.
func TestCompiledTablesBehaviorallyIdentical(t *testing.T) {
	algo := runWorkload(t, false)
	table := runWorkload(t, true)
	if algo != table {
		t.Fatalf("behavior diverged:\nalgorithmic: %s\ntable:       %s", algo, table)
	}
}

func TestUseCompiledTablesValidation(t *testing.T) {
	m := mustMachine(t, Config{Shape: geom.MustShape(3, 3)})
	if _, err := m.Send(geom.Coord{0, 0}, geom.Coord{2, 2}, 4); err != nil {
		t.Fatal(err)
	}
	if err := m.UseCompiledTables(); err == nil {
		t.Error("table switch-over accepted on a loaded network")
	}
	m.Run(10_000)
	if err := m.UseCompiledTables(); err != nil {
		t.Errorf("switch-over on quiescent network: %v", err)
	}
	// Faults added after switch-over recompile the tables.
	if err := m.AddFault(fault.RouterFault(geom.Coord{1, 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Send(geom.Coord{0, 1}, geom.Coord{1, 2}, 4); err != nil {
		t.Fatal(err)
	}
	if out := m.Run(10_000); !out.Drained {
		t.Fatalf("outcome %+v", out)
	}
	last := m.Deliveries()[len(m.Deliveries())-1]
	if !last.Detoured {
		t.Error("table-routed detour not flagged")
	}
}
