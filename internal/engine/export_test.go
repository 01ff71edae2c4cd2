package engine

import (
	"cmp"
	"fmt"
	"slices"
)

// ArbitrationStats says what a checked run exercised.
type ArbitrationStats struct {
	// Contended counts switch-cycles in which two or more requests competed
	// at one switch; Ties those among them where two shared an arrival stamp.
	Contended, Ties int
	// FanRefusals counts multi-output requests that were refused, and so
	// reserved their ports against younger requests.
	FanRefusals int
}

// StepCheckingArbitration is Step for an AcquireAtomic engine with one
// addition: before the allocator runs, the grants it must make are worked out
// the way the kernel used to order them — one stable sort of every request in
// the network by (arrival stamp, node ID, per-switch tie key) — and the
// grants it then makes are compared with them. The phase sequence below is
// Step's; the tests run a twin engine through Step itself and compare
// StateHash every cycle, which keeps the two from drifting apart.
func (e *Engine) StepCheckingArbitration(st *ArbitrationStats) error {
	if e.PreCycle != nil {
		e.PreCycle(e.cycle)
	}
	e.land()
	e.eject()
	requests := e.gatherRequests()
	want := globalOrderGrants(e, requests, st)
	if len(requests) > 0 {
		e.allocateAtomic(requests)
	}
	var err error
	for _, p := range requests {
		in, rs := e.inPorts[p], e.in[p].route
		granted := rs.nGranted > 0
		if granted != want[in] {
			err = fmt.Errorf("cycle %d: %s.in%d (since %d, %d outs): granted=%v, the global arrival order grants=%v",
				e.cycle, in.Node().Name, in.idx, rs.since, len(rs.outs), granted, want[in])
			break
		}
	}
	e.traverse()
	e.inject()
	e.cycle++
	e.ctr.Cycles++
	if e.PostCycle != nil {
		e.PostCycle(e.cycle)
	}
	return err
}

// globalOrderGrants dry-runs atomic allocation in the old global order and
// returns which requests it grants (an atomic grant is all of a request's
// outputs or none, so a flag per request is the whole (input, outputs) set).
func globalOrderGrants(e *Engine, requests []int32, st *ArbitrationStats) map[*InPort]bool {
	tieKey := func(in *InPort) int { return (in.idx + in.Node().ID) % len(in.Node().In) }
	since := func(in *InPort) int64 { return e.in[in.id].route.since }
	var order []*InPort
	for _, p := range requests {
		order = append(order, e.inPorts[p])
	}
	slices.SortStableFunc(order, func(a, b *InPort) int {
		if since(a) != since(b) {
			return cmp.Compare(since(a), since(b))
		}
		if a.Node() != b.Node() {
			return cmp.Compare(a.Node().ID, b.Node().ID)
		}
		return cmp.Compare(tieKey(a), tieKey(b))
	})
	perSwitch := map[*Node][]int64{}
	for _, p := range requests {
		in := e.inPorts[p]
		perSwitch[in.Node()] = append(perSwitch[in.Node()], since(in))
	}
	for _, stamps := range perSwitch {
		if len(stamps) > 1 {
			st.Contended++
			slices.Sort(stamps)
			if len(slices.Compact(stamps)) < len(stamps) {
				st.Ties++
			}
		}
	}
	grants := map[*InPort]bool{}
	unavailable := map[*OutPort]bool{} // granted or reserved earlier this cycle
	for _, in := range order {
		rs := e.in[in.id].route
		if rs.nGranted > 0 {
			continue
		}
		ok := true
		for _, o := range rs.outs {
			if o.op.owner != nil || unavailable[o.op] {
				ok = false
			}
		}
		if !ok && len(rs.outs) > 1 {
			st.FanRefusals++
		}
		for _, o := range rs.outs {
			unavailable[o.op] = true
		}
		grants[in] = ok
	}
	return grants
}

// StalledEndpoints returns endpoints with queued flits that cannot inject
// because the outbound link has no credits.
func (e *Engine) StalledEndpoints() []*Node {
	var out []*Node
	for i, ep := range e.endpoints {
		if ep.InjectQueueLen() > 0 && e.credits(e.src[i].port) < 1 {
			out = append(out, ep)
		}
	}
	return out
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
