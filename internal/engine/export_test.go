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
	e.slot = int(e.cycle % int64(e.cfg.LinkDelay))
	e.deliverLinks()
	e.eject()
	requests := e.gatherRequests()
	want := globalOrderGrants(e, requests, st)
	if len(requests) > 0 {
		e.allocateAtomic(requests)
	}
	var err error
	for _, in := range requests {
		granted := in.route.nGranted > 0
		if granted != want[in] {
			err = fmt.Errorf("cycle %d: %s.in%d (since %d, outs %v): granted=%v, the global arrival order grants=%v",
				e.cycle, in.node.Name, in.idx, in.route.since, in.route.outs, granted, want[in])
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
func globalOrderGrants(e *Engine, requests []*InPort, st *ArbitrationStats) map[*InPort]bool {
	tieKey := func(in *InPort) int { return (in.idx + in.node.ID) % len(in.node.In) }
	order := slices.Clone(requests)
	slices.SortStableFunc(order, func(a, b *InPort) int {
		if a.route.since != b.route.since {
			return cmp.Compare(a.route.since, b.route.since)
		}
		if a.node != b.node {
			return cmp.Compare(a.node.ID, b.node.ID)
		}
		return cmp.Compare(tieKey(a), tieKey(b))
	})
	perSwitch := map[*Node][]int64{}
	for _, in := range requests {
		perSwitch[in.node] = append(perSwitch[in.node], in.route.since)
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
		rs := in.route
		if rs.nGranted > 0 {
			continue
		}
		ok := true
		for _, o := range rs.outs {
			if op := in.node.Out[o]; op.owner != nil || unavailable[op] {
				ok = false
			}
		}
		if !ok && len(rs.outs) > 1 {
			st.FanRefusals++
		}
		for _, o := range rs.outs {
			unavailable[in.node.Out[o]] = true
		}
		grants[in] = ok
	}
	return grants
}
