package trace

import "sort"

// Packets lists recorded packet ids in ascending order.
func (r *Recorder) Packets() []uint64 {
	ids := make([]uint64, 0, len(r.events))
	for id := range r.events {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
