// Package trace records per-packet forwarding events from a running
// simulation and formats them as the hop-by-hop walkthroughs used to
// reproduce the paper's figure narratives (Fig. 6 broadcast steps, Fig. 8
// detour steps).
package trace

import (
	"fmt"
	"sort"
	"strings"

	"sr2201/internal/engine"
	"sr2201/internal/flit"
)

// Event is one header forwarding: the named node sent the packet's header
// out of port Out at Cycle, with the RC bit it carried leaving the node.
type Event struct {
	Cycle int64
	Node  string
	Out   int
	RC    flit.RC
}

// Recorder accumulates forwarding events per packet.
type Recorder struct {
	events map[uint64][]Event
	prev   func(*engine.Node, int, *flit.Header, int64)
}

// Attach hooks a recorder onto the engine's OnForward callback, chaining any
// callback already installed.
func Attach(e *engine.Engine) *Recorder {
	r := &Recorder{events: map[uint64][]Event{}, prev: e.OnForward}
	e.OnForward = func(from *engine.Node, out int, h *flit.Header, cycle int64) {
		r.events[h.PacketID] = append(r.events[h.PacketID], Event{
			Cycle: cycle, Node: from.Name, Out: out, RC: h.RC,
		})
		if r.prev != nil {
			r.prev(from, out, h, cycle)
		}
	}
	return r
}

// Events returns the recorded events for one packet, in cycle order (ties in
// record order — for broadcasts these are the simultaneous fan branches).
func (r *Recorder) Events(id uint64) []Event {
	evs := append([]Event(nil), r.events[id]...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Cycle < evs[j].Cycle })
	return evs
}

// Format renders one packet's trace, one hop per line:
//
//	cycle   3  RTC(0,0)   --normal-->  port 0
func (r *Recorder) Format(id uint64) string {
	evs := r.Events(id)
	if len(evs) == 0 {
		return fmt.Sprintf("packet %d: no recorded hops\n", id)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "packet %d (%d hops):\n", id, len(evs))
	for _, ev := range evs {
		fmt.Fprintf(&b, "  cycle %4d  %-12s --%s--> port %d\n", ev.Cycle, ev.Node, ev.RC, ev.Out)
	}
	return b.String()
}
