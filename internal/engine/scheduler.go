package engine

import "math/bits"

// Active-set scheduling: each simulation phase visits only the elements that
// can possibly do work this cycle, instead of scanning the whole network.
//
//   - links have no set: the landing phase walks this cycle's arrival list,
//     and a link's mark (its downstream port's linkActive, set while it
//     carries flits) only feeds the LinkVisits counters;
//   - a switch input port is active while it holds a cut-through state or
//     buffered flits (i.e. while allocate/traverse would not no-op on it);
//   - an endpoint is eject-active while its input buffer is non-empty and
//     inject-active while its source queue is non-empty.
//
// Determinism argument (DESIGN.md §5): every set is a bitmap indexed by the
// element's position in creation order (switch creation order × port index;
// endpoint creation order), so walking the set bits low to high visits
// elements in exactly the order a scan of every element would. Elements
// outside a set satisfy the phase's no-op condition, make no requests and
// touch no arbitration state, so skipping them is unobservable. Membership is
// maintained incrementally: an element's bit is set when it becomes active (a
// flit lands, a packet is injected, a header is routed) and cleared by the
// owning phase's sweep on the first visit that finds it idle. A sweep
// re-reads the bitmap after every visit, so an element a hook activates
// ahead of the cursor is served in the same sweep and one behind it in the
// next, exactly as a scan of every element would. The reference that scans
// every element is test-only: spec_test.go writes the kernel's rules over
// every port in creation order, and the lockstep tests hold the kernel to it
// every cycle.

// activeSet is one phase's membership bitmap: the bit is the membership,
// what sweeps walk, activation sets and snapshots record.
type activeSet struct {
	words []uint64
}

// resize makes room for elements 0..n-1.
func (s *activeSet) resize(n int) {
	if w := words(n); w > len(s.words) {
		s.words = append(s.words, make([]uint64, w-len(s.words))...)
	}
}

// words is the number of bitmap words that hold n elements.
func words(n int) int { return (n + 63) >> 6 }

// add makes element i a member; a no-op when it already is one.
func (s *activeSet) add(i int) {
	s.words[i>>6] |= 1 << (i & 63)
}

// has reports whether element i is a member.
func (s *activeSet) has(i int) bool {
	return s.words[i>>6]>>(i&63)&1 == 1
}

// remove drops member i.
func (s *activeSet) remove(i int) {
	s.words[i>>6] &^= 1 << (i & 63)
}

// next returns the lowest member above i, or -1 when there is none; a sweep
// starts at next(-1). It reads the bitmap afresh on every call, so members
// added during a sweep are seen exactly when they lie ahead of the cursor.
func (s *activeSet) next(i int) int {
	i++
	wi := i >> 6
	if wi >= len(s.words) {
		return -1
	}
	w := s.words[wi] &^ (1<<(i&63) - 1)
	for w == 0 {
		if wi++; wi == len(s.words) {
			return -1
		}
		w = s.words[wi]
	}
	return wi<<6 | bits.TrailingZeros64(w)
}

// clear empties the set.
func (s *activeSet) clear() {
	clear(s.words)
}

// Counters exposes cheap per-run observability for the kernel hot path: how
// many elements each phase visited versus skipped thanks to active-set
// scheduling, and how the route-state pool behaved. All values are
// cumulative since engine creation. A visit is counted when it happens, so
// an element a hook activates ahead of a running sweep counts in that sweep.
// Since an element leaves its set on the first visit that finds it idle,
// every endpoint visit finds work; a switch port costs one idle visit after
// traversal empties it, the visit that drops it.
type Counters struct {
	// Cycles is the number of Step calls.
	Cycles int64
	// LinkVisits / LinkVisitsSkipped count, per landing phase, the links
	// marked as carrying flits at its start vs the rest.
	LinkVisits, LinkVisitsSkipped int64
	// SwitchPortVisits / SwitchPortVisitsSkipped count switch input ports
	// examined vs skipped by the allocation phase (traversal walks the ports
	// allocation found holding a route state and is not double-counted).
	SwitchPortVisits, SwitchPortVisitsSkipped int64
	// EjectVisits / EjectVisitsSkipped count endpoints examined vs skipped
	// by the ejection phase.
	EjectVisits, EjectVisitsSkipped int64
	// InjectVisits / InjectVisitsSkipped count endpoints examined vs skipped
	// by the injection phase.
	InjectVisits, InjectVisitsSkipped int64
	// RouteStatesAllocated / RouteStatesReused count cut-through states
	// taken from the heap vs recycled from the engine's pool.
	RouteStatesAllocated, RouteStatesReused int64
}

// Visits sums the elements examined across all phases.
func (c Counters) Visits() int64 {
	return c.LinkVisits + c.SwitchPortVisits + c.EjectVisits + c.InjectVisits
}

// Skipped sums the elements active-set scheduling avoided examining.
func (c Counters) Skipped() int64 {
	return c.LinkVisitsSkipped + c.SwitchPortVisitsSkipped + c.EjectVisitsSkipped + c.InjectVisitsSkipped
}

// Counters returns a snapshot of the engine's hot-path counters.
func (e *Engine) Counters() Counters { return e.ctr }
