package stats

import (
	"sort"
	"strconv"

	"sr2201/internal/engine"
)

// PortUtil reports one switch output channel's utilization.
type PortUtil struct {
	// Node and Port identify the channel.
	Node string
	Port int
	// Busy is the number of cycles a flit crossed the channel; Conflicts is
	// the number of allocation cycles with competing requests.
	Busy, Conflicts int64
	// Frac is Busy divided by the elapsed cycles.
	Frac float64
}

// TopPorts returns the n busiest switch output channels of a simulation,
// utilization computed over the engine's elapsed cycles. Endpoints
// (injection channels) are excluded — they reflect offered load, not
// network contention.
func TopPorts(e *engine.Engine, n int) []PortUtil {
	elapsed := e.Cycle()
	var out []PortUtil
	for _, sw := range e.Switches() {
		for i, op := range sw.Out {
			if op.BusyCycles() == 0 && op.ConflictCycles == 0 {
				continue
			}
			u := PortUtil{Node: sw.Name, Port: i, Busy: op.BusyCycles(), Conflicts: op.ConflictCycles}
			if elapsed > 0 {
				u.Frac = float64(op.BusyCycles()) / float64(elapsed)
			}
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Busy != out[j].Busy {
			return out[i].Busy > out[j].Busy
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Port < out[j].Port
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// UtilizationTable renders the busiest channels as a result table.
func UtilizationTable(e *engine.Engine, n int) *Table {
	t := NewTable("Busiest network channels", "channel", "busy cycles", "utilization", "conflicts")
	for _, u := range TopPorts(e, n) {
		t.AddRow(u.Node+".out"+strconv.Itoa(u.Port), u.Busy, u.Frac, u.Conflicts)
	}
	return t
}
