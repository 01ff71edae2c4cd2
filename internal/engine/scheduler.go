package engine

import "math/bits"

// Active-set scheduling: each simulation phase visits only the elements that
// can possibly do work this cycle, instead of scanning the whole network.
//
//   - a link is active while its pipeline holds in-flight flits;
//   - a switch input port is active while it holds a cut-through state or
//     buffered flits (i.e. while allocate/traverse would not no-op on it);
//   - an endpoint is eject-active while its input buffer is non-empty and
//     inject-active while its source queue is non-empty.
//
// Determinism argument (DESIGN.md §5): every set is a bitmap indexed by the
// element's position in the corresponding full scan (link creation order;
// switch creation order × port index; endpoint creation order), so walking
// the set bits low to high visits elements in exactly the order the full
// scan would. Elements outside a set satisfy the phase's no-op condition,
// make no requests and touch no arbitration state, so skipping them is
// unobservable. Membership is maintained incrementally: an element's bit is
// set when it becomes active (a flit lands, a packet is injected, a header
// is routed) and cleared by the owning phase's sweep on the first visit that
// finds it idle. A sweep re-reads the bitmap after every visit, so an element
// a hook activates ahead of the cursor is served in the same sweep and one
// behind it in the next, exactly as the full scan would. The full-scan
// reference implementation is kept behind Config.DisableActiveSet and the
// differential tests assert bit-for-bit equivalence between the two modes.

// activeSet is one phase's membership bitmap. The per-element flag (active,
// ejectActive, injectActive) says the same thing as the bit; the flag is what
// snapshots record and what activation tests, the bit is what sweeps walk.
type activeSet struct {
	words []uint64
}

// resize makes room for elements 0..n-1.
func (s *activeSet) resize(n int) {
	for len(s.words)*64 < n {
		s.words = append(s.words, 0)
	}
}

// add makes element i a member. The caller has checked the element's flag:
// i is not a member.
func (s *activeSet) add(i int) {
	s.words[i>>6] |= 1 << (i & 63)
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

// activateLink marks a link as carrying in-flight flits.
func (e *Engine) activateLink(l *Link) {
	if l.active {
		return
	}
	l.active = true
	e.activeLinks.add(l.id)
}

// activateAlloc marks a switch input port as routable/traversable.
func (e *Engine) activateAlloc(in *InPort) {
	if in.active {
		return
	}
	in.active = true
	e.activeAlloc.add(in.pos)
}

// activateEject marks an endpoint as holding arrived flits.
func (e *Engine) activateEject(ep *Node) {
	if ep.ejectActive {
		return
	}
	ep.ejectActive = true
	e.activeEject.add(ep.epIdx)
}

// activateInject marks an endpoint as holding queued source flits.
func (e *Engine) activateInject(ep *Node) {
	if ep.injectActive {
		return
	}
	ep.injectActive = true
	e.activeInject.add(ep.epIdx)
}

// Counters exposes cheap per-run observability for the kernel hot path: how
// many elements each phase visited versus skipped thanks to active-set
// scheduling, and how the route-state pool behaved. All values are
// cumulative since engine creation. A visit is counted when it happens, so
// an element a hook activates ahead of a running sweep counts in that sweep.
// Since an element leaves its set on the first visit that finds it idle,
// every link and endpoint visit finds work; a switch port costs one idle
// visit after traversal empties it, the visit that drops it.
type Counters struct {
	// Cycles is the number of Step calls.
	Cycles int64
	// LinkVisits / LinkVisitsSkipped count links examined vs skipped by the
	// link-delivery phase.
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

// SkipRatio is Skipped over the full-scan visit count (Visits+Skipped),
// i.e. the fraction of per-cycle scanning the scheduler eliminated.
func (c Counters) SkipRatio() float64 {
	total := c.Visits() + c.Skipped()
	if total == 0 {
		return 0
	}
	return float64(c.Skipped()) / float64(total)
}

// Counters returns a snapshot of the engine's hot-path counters.
func (e *Engine) Counters() Counters { return e.ctr }
