package engine

import (
	"cmp"
	"slices"
)

// Active-set scheduling: each simulation phase visits only the elements that
// can possibly do work this cycle, instead of scanning the whole network.
//
//   - a link is active while its pipeline holds in-flight flits;
//   - a switch input port is active while it holds a cut-through state or
//     buffered flits (i.e. while allocate/traverse would not no-op on it);
//   - an endpoint is eject-active while its input buffer is non-empty and
//     inject-active while its source queue is non-empty.
//
// Determinism argument (DESIGN.md §5): every active list is kept sorted by
// the element's position in the corresponding full scan (link creation
// order; switch creation order × port index; endpoint creation order), so
// iterating a list visits elements in exactly the order the full scan
// would. Elements outside a list satisfy the phase's no-op condition, make
// no requests and touch no arbitration state, so skipping them is
// unobservable. Membership is maintained incrementally: elements are
// inserted at their sorted position when they become active (a flit lands,
// a packet is injected, a header is routed) and dropped during the owning
// phase's sweep once they go idle. The full-scan reference implementation
// is kept behind Config.DisableActiveSet and the differential tests assert
// bit-for-bit equivalence between the two modes.

// Activations are not inserted one-by-one (a sorted insert memmoves the
// tail of the list, which under load degenerates to quadratic work per
// cycle): they are appended to a per-list pending buffer and merged — one
// sort of the few newcomers plus one linear back-to-front merge — when the
// owning phase next runs.

// mergePending merges the sorted-by-key pending elements into the sorted
// active list and returns the grown list. pending is consumed (reset by the
// caller). Keys are unique: an element is appended to pending only while
// absent from both slices.
func mergePending[T any](active, pending []T, key func(T) int64) []T {
	if len(pending) == 0 {
		return active
	}
	if len(pending) <= 32 {
		// Typical case: a handful of newcomers per cycle. Insertion sort
		// beats the generic sort's setup cost at this size.
		for i := 1; i < len(pending); i++ {
			for j := i; j > 0 && key(pending[j]) < key(pending[j-1]); j-- {
				pending[j], pending[j-1] = pending[j-1], pending[j]
			}
		}
	} else {
		slices.SortFunc(pending, func(a, b T) int { return cmp.Compare(key(a), key(b)) })
	}
	i := len(active) - 1
	j := len(pending) - 1
	active = append(active, pending...)
	for k := len(active) - 1; j >= 0; k-- {
		if i >= 0 && key(active[i]) > key(pending[j]) {
			active[k] = active[i]
			i--
		} else {
			active[k] = pending[j]
			j--
		}
	}
	return active
}

// idleEvictAfter is the number of consecutive workless visits an element
// survives in its active list before the owning phase evicts it. Without
// this hysteresis a steady flow over a delay-1 link would leave and re-join
// the link list every single cycle (the pipe empties in deliverLinks and
// refills in traverse), funnelling the whole busy set through the pending
// sort each cycle. A lingering element is a no-op for its phase, so the
// eviction delay is unobservable in simulation state — it only trades a few
// wasted visits on a quiescing element for membership stability on a busy
// one.
const idleEvictAfter = 8

func linkKey(l *Link) int64     { return int64(l.id) }
func inPortKey(p *InPort) int64 { return p.ordKey }
func nodeKey(n *Node) int64     { return int64(n.ID) }

// activateLink marks a link as carrying in-flight flits.
func (e *Engine) activateLink(l *Link) {
	if l.active {
		return
	}
	l.active = true
	e.pendLinks = append(e.pendLinks, l)
}

// activateAlloc marks a switch input port as routable/traversable.
func (e *Engine) activateAlloc(in *InPort) {
	if in.active {
		return
	}
	in.active = true
	e.pendAlloc = append(e.pendAlloc, in)
}

// activateEject marks an endpoint as holding arrived flits.
func (e *Engine) activateEject(ep *Node) {
	if ep.ejectActive {
		return
	}
	ep.ejectActive = true
	e.pendEject = append(e.pendEject, ep)
}

// activateInject marks an endpoint as holding queued source flits.
func (e *Engine) activateInject(ep *Node) {
	if ep.injectActive {
		return
	}
	ep.injectActive = true
	e.pendInject = append(e.pendInject, ep)
}

// Each phase merges its pending buffer immediately before iterating, so an
// activation becomes visible in exactly the cycle the full scan would see
// it (deliverLinks lands flits that eject and allocate must process in the
// same Step).

func (e *Engine) mergeLinks() {
	e.activeLinks = mergePending(e.activeLinks, e.pendLinks, linkKey)
	e.pendLinks = e.pendLinks[:0]
}

func (e *Engine) mergeAlloc() {
	e.activeAlloc = mergePending(e.activeAlloc, e.pendAlloc, inPortKey)
	e.pendAlloc = e.pendAlloc[:0]
}

func (e *Engine) mergeEject() {
	e.activeEject = mergePending(e.activeEject, e.pendEject, nodeKey)
	e.pendEject = e.pendEject[:0]
}

func (e *Engine) mergeInject() {
	e.activeInject = mergePending(e.activeInject, e.pendInject, nodeKey)
	e.pendInject = e.pendInject[:0]
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
	// examined vs skipped by the allocation phase (traversal walks the same
	// active list and is not double-counted).
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
