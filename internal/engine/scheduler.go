package engine

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
// is routed) and cleared during the owning phase's sweep once it goes idle.
// The full-scan reference implementation is kept behind
// Config.DisableActiveSet and the differential tests assert bit-for-bit
// equivalence between the two modes.

// activeSet is one phase's membership bitmap. The per-element flag (active,
// ejectActive, injectActive) says the same thing as the bit; the flag is what
// snapshots record and what activation tests, the bit is what sweeps walk.
type activeSet struct {
	words []uint64
	n     int // members
	// late collects the elements activated while the set's own sweep runs
	// (an OnForward hook injecting from inside the injection phase): they
	// join when the sweep ends, so whatever their position they are first
	// visited in the next cycle.
	late     []int
	sweeping bool
}

// resize makes room for elements 0..n-1.
func (s *activeSet) resize(n int) {
	for len(s.words)*64 < n {
		s.words = append(s.words, 0)
	}
}

// add makes element i a member. The caller has checked the element's flag:
// i is not a member and not already waiting in late.
func (s *activeSet) add(i int) {
	if s.sweeping {
		s.late = append(s.late, i)
		return
	}
	s.words[i>>6] |= 1 << (i & 63)
	s.n++
}

// remove drops member i.
func (s *activeSet) remove(i int) {
	s.words[i>>6] &^= 1 << (i & 63)
	s.n--
}

// beginSweep opens the owning phase's sweep and returns the member count the
// visit counters charge for it.
func (s *activeSet) beginSweep() int {
	s.sweeping = true
	return s.n
}

// endSweep closes the sweep and admits the late arrivals.
func (s *activeSet) endSweep() {
	s.sweeping = false
	for _, i := range s.late {
		s.add(i)
	}
	s.late = s.late[:0]
}

// clear empties the set.
func (s *activeSet) clear() {
	clear(s.words)
	s.n = 0
	s.late = s.late[:0]
}

// idleEvictAfter is the number of consecutive workless visits an element
// survives in its active set before the owning phase evicts it. A lingering
// element is a no-op for its phase, so the eviction delay is unobservable in
// simulation state; it is kept because the visit counters and every snapshot
// (which records each element's flag and idle count) were produced with it.
const idleEvictAfter = 8

// lingers applies the hysteresis to an element its phase has just visited:
// busy resets the count, and an idle element stays until it has been found
// idle idleEvictAfter times running. A false return tells the sweep to evict
// it (the count restarts at zero for its next stay).
func lingers(busy bool, idle *uint8) bool {
	if busy {
		*idle = 0
		return true
	}
	if *idle < idleEvictAfter {
		*idle++
		return true
	}
	*idle = 0
	return false
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
// cumulative since engine creation.
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
