package trace

import (
	"sort"

	"sr2201/internal/flit"
)

// Packets lists recorded packet ids in ascending order.
func (r *Recorder) Packets() []uint64 {
	ids := make([]uint64, 0, len(r.events))
	for id := range r.events {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// RCTransitions extracts the sequence of distinct RC values the packet
// carried, e.g. [normal detour normal] for a detoured packet.
func (r *Recorder) RCTransitions(id uint64) []flit.RC {
	var out []flit.RC
	for _, ev := range r.Events(id) {
		if len(out) == 0 || out[len(out)-1] != ev.RC {
			out = append(out, ev.RC)
		}
	}
	return out
}
