package engine

import (
	"fmt"

	"sr2201/internal/checkpoint"
	"sr2201/internal/flit"
)

// ChainScenario and UpdateGolden hand the package's own fixtures to the
// external tests.
var (
	ChainScenario = chainScenario
	UpdateGolden  = update
)

// Snapshot serializes the engine's dynamic state into one self-contained
// checkpoint container.
func (e *Engine) Snapshot() []byte {
	w := checkpoint.NewWriter()
	e.EncodeState(w)
	return w.Bytes()
}

// Restore replaces the engine's dynamic state with a container produced by
// Snapshot on an identically-built engine. See DecodeState for the error
// contract.
func (e *Engine) Restore(data []byte) error {
	r, err := checkpoint.NewReader(data)
	if err != nil {
		return err
	}
	return e.DecodeState(r)
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

// SkipRatio is Skipped over the visits a scan of every element would make
// (Visits+Skipped), i.e. the fraction of that scanning the scheduler
// eliminated.
func (c Counters) SkipRatio() float64 {
	total := c.Visits() + c.Skipped()
	if total == 0 {
		return 0
	}
	return float64(c.Skipped()) / float64(total)
}

// Buffered reports the flits buffered at the port, visible to its node.
func (p *InPort) Buffered() int { return int(p.eng.in[p.id].n) }

// Flit returns the i-th flit of the port's ring: 0 is the head, and the
// flit behind the Buffered ones is the one on the link into the port.
func (p *InPort) Flit(i int) flit.Flit { return *p.eng.at(p.id, i) }

// Route returns the switch's routing function.
func (n *Node) Route() RouteFunc { return n.route }

// PendingInject returns the flits waiting in the endpoint's source queue.
func (n *Node) PendingInject() []flit.Flit { return n.pendingInject() }

// Members returns physical channel pc's output ports in its arbitration
// order.
func (e *Engine) Members(pc *PhysChannel) []*OutPort {
	out := make([]*OutPort, len(pc.members))
	for i, id := range pc.members {
		out[i] = e.outPorts[id]
	}
	return out
}

// CheckActiveSets audits active-set membership between Steps and returns the
// first violation, or nil. A link is marked exactly while it carries flits
// (and counted in linksActive), an endpoint eject- (inject-) active exactly
// while its input buffer (source queue) holds flits, and a switch port
// holding a route state or flits is a member (one that traversal emptied
// waits for the next allocation sweep to drop it). KillSwitch and
// KillPacket remove flits without touching membership, so the check does not
// hold right after them.
func (e *Engine) CheckActiveSets() error {
	var err error
	audit := func(member, busy, exact bool, set string, n *Node, port int) {
		if err == nil && (busy && !member || exact && member && !busy) {
			err = fmt.Errorf("engine: %s.%d: %s member=%v busy=%v", n.Name, port, set, member, busy)
		}
	}
	marked := 0
	for _, p := range e.links {
		r, from := e.in[p], e.outPorts[e.in[p].up]
		if r.linkActive {
			marked++
		}
		audit(r.linkActive, r.fly > 0, true, "link", from.Node(), from.idx)
	}
	if err == nil && marked != e.linksActive {
		err = fmt.Errorf("engine: %d links marked, counted %d", marked, e.linksActive)
	}
	for i, p := range e.fullIn {
		in := e.inPorts[p]
		audit(e.activeAlloc.has(i), e.in[p].route != nil || e.in[p].n > 0, false, "alloc", in.Node(), in.idx)
	}
	for i, ep := range e.endpoints {
		audit(e.activeEject.has(i), e.in[e.src[i].port].n > 0, true, "eject", ep, 0)
		audit(e.activeInject.has(i), ep.InjectQueueLen() > 0, true, "inject", ep, 0)
	}
	return err
}
