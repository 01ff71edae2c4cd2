package engine_test

import (
	"fmt"
	"slices"
	"testing"

	"sr2201/internal/engine"
	"sr2201/internal/flit"
)

// lockstep steps a spec beside an engine and compares them after every
// cycle. The spec steps first, from the engine's PreCycle hook (after any
// hook already there), so the routing functions both kernels call read the
// same output ownership: the engine's, as the last cycle left it. A
// lockstep attaches before the engine's first Step, and after the engine's
// hooks are set; the spec's hooks are its own (spec.OnDeliver,
// spec.OnForward).
type lockstep struct {
	e   *engine.Engine
	s   *spec
	got []specEvent // the engine's deliveries and drops this cycle
	err error       // the first divergence; the spec stops there
}

func newLockstep(e *engine.Engine) *lockstep {
	l := &lockstep{e: e, s: newSpec(e.Config())}
	l.sync()
	pre, post, deliver, drop := e.PreCycle, e.PostCycle, e.OnDeliver, e.OnDrop
	e.PreCycle = func(c int64) {
		if pre != nil {
			pre(c)
		}
		if l.err == nil {
			l.sync()
			l.s.step()
		}
	}
	e.OnDeliver = func(d engine.Delivery) {
		l.got = append(l.got, specEvent{d.Cycle, d.At.ID, *d.Header, ""})
		if deliver != nil {
			deliver(d)
		}
	}
	e.OnDrop = func(d engine.Drop) {
		l.got = append(l.got, specEvent{d.Cycle, d.At.ID, *d.Header, d.Reason})
		if drop != nil {
			drop(d)
		}
	}
	e.PostCycle = func(c int64) {
		if l.err == nil {
			l.err = l.compare()
		}
		if post != nil {
			post(c)
		}
	}
	return l
}

// sync hands the spec what was built or given to the engine since the last
// call: new nodes, links and physical channels, and the packets injected
// through the engine's API, as the headers the engine stamped. The spec's
// own hooks inject into the spec, so only the difference is taken.
func (l *lockstep) sync() {
	s := l.s
	for _, n := range l.e.Nodes()[len(s.base):] {
		s.addNode(n)
	}
	for o := range s.ports {
		out := s.ports[o].node.Out[s.ports[o].idx]
		if d := out.DownstreamIn(); d != nil && s.ports[o].down < 0 {
			s.connect(o, l.port(d.Node(), d.Index()))
		}
		if pc := out.Phys(); pc != nil && s.ports[o].phys < 0 {
			var members []int
			for _, m := range l.e.Members(pc) {
				members = append(members, l.port(m.Node(), m.Index()))
			}
			s.share(members)
		}
	}
	for i := range s.eps {
		ep := &s.eps[i]
		n := s.ports[ep.port].node
		var hs []flit.Header
		q := n.PendingInject()
		for j := len(q) - 1; j >= 0 && int64(len(hs)) < n.Injected-ep.injected; j-- {
			if q[j].Header != nil {
				hs = append(hs, *q[j].Header)
			}
		}
		for j := len(hs) - 1; j >= 0; j-- {
			ep.queue = flit.AppendPacket(ep.queue, &hs[j], hs[j].Size)
			ep.injected++
		}
	}
}

// port returns the spec's id of a node's port.
func (l *lockstep) port(n *engine.Node, idx int) int { return l.s.base[n.ID] + idx }

// check fails the test at the first divergence.
func (l *lockstep) check(t testing.TB) {
	t.Helper()
	if l.err != nil {
		t.Fatal(l.err)
	}
}

// KillSwitch and KillPacket purge in both kernels and compare the
// casualties and the states left.
func (l *lockstep) KillSwitch(n *engine.Node) []engine.KilledPacket {
	var want []engine.KilledPacket
	if l.err == nil {
		l.sync()
		want = l.s.KillSwitch(n)
	}
	got := l.e.KillSwitch(n)
	l.killed(got, want)
	return got
}

func (l *lockstep) KillPacket(id uint64) (engine.KilledPacket, bool) {
	var want engine.KilledPacket
	var wok bool
	if l.err == nil {
		l.sync()
		want, wok = l.s.KillPacket(id)
	}
	got, ok := l.e.KillPacket(id)
	if ok != wok {
		l.killed([]engine.KilledPacket{got}, nil)
	} else if ok {
		l.killed([]engine.KilledPacket{got}, []engine.KilledPacket{want})
	}
	return got, ok
}

func (l *lockstep) killed(got, want []engine.KilledPacket) {
	same := func(a, b engine.KilledPacket) bool {
		return a.ID == b.ID && a.AlreadyDropped == b.AlreadyDropped &&
			(a.Header == nil) == (b.Header == nil) && (a.Header == nil || *a.Header == *b.Header)
	}
	if l.err == nil && !slices.EqualFunc(got, want, same) {
		l.err = fmt.Errorf("cycle %d: the engine's purge killed %+v, the spec's %+v", l.e.Cycle(), got, want)
	}
	if l.err == nil {
		l.err = l.compare()
	}
}

// compare returns the first difference between the two kernels, or nil.
func (l *lockstep) compare() error {
	e, s := l.e, l.s
	defer func() { l.got, s.events = l.got[:0], s.events[:0] }()
	c := e.Cycle()
	if c != s.cycle || e.Counters().Cycles != s.cycle {
		return fmt.Errorf("engine at cycle %d (%d counted), spec at %d", c, e.Counters().Cycles, s.cycle)
	}
	if !slices.Equal(l.got, s.events) {
		return fmt.Errorf("cycle %d: the engine delivered and dropped %+v, the spec %+v", c, l.got, s.events)
	}
	resident := 0
	for p := range s.ports {
		r := &s.ports[p]
		in, out := r.node.In[r.idx], r.node.Out[r.idx]
		resident += len(r.buf) + len(r.link)
		if n := in.Buffered(); n != len(r.buf) || in.UpstreamInFlight() != len(r.link) {
			return fmt.Errorf("cycle %d: %s.in%d holds %d flits and %d on its link, the spec %d and %d",
				c, r.node.Name, r.idx, n, in.UpstreamInFlight(), len(r.buf), len(r.link))
		}
		for i, want := range append(r.buf[:len(r.buf):len(r.buf)], r.link...) {
			if got := in.Flit(i); got.PacketID != want.PacketID || got.Seq != want.Seq {
				return fmt.Errorf("cycle %d: %s.in%d flit %d is pkt%d.%d, the spec's pkt%d.%d",
					c, r.node.Name, r.idx, i, got.PacketID, got.Seq, want.PacketID, want.Seq)
			}
		}
		owner := -1
		if o := out.Owner(); o != nil {
			owner = l.port(o.Node(), o.Index())
		}
		if out.Credits() != r.credits || owner != r.owner {
			return fmt.Errorf("cycle %d: %s.out%d has %d credits and owner %d, the spec %d and %d",
				c, r.node.Name, r.idx, out.Credits(), owner, r.credits, r.owner)
		}
		if in.BlockedCycles() != r.blocked || out.BusyCycles() != r.busy || out.ConflictCycles != r.conf {
			return fmt.Errorf("cycle %d: %s port %d blocked/busy/conflict %d/%d/%d, the spec %d/%d/%d", c, r.node.Name, r.idx,
				in.BlockedCycles(), out.BusyCycles(), out.ConflictCycles, r.blocked, r.busy, r.conf)
		}
	}
	for _, ep := range s.eps {
		n := s.ports[ep.port].node
		resident += len(ep.queue)
		if n.InjectQueueLen() != len(ep.queue) || n.Injected != ep.injected || n.Sent != ep.sent || n.Received != ep.received {
			return fmt.Errorf("cycle %d: %s queue/injected/sent/received %d/%d/%d/%d, the spec %d/%d/%d/%d", c, n.Name,
				n.InjectQueueLen(), n.Injected, n.Sent, n.Received, len(ep.queue), ep.injected, ep.sent, ep.received)
		}
	}
	if e.Moves() != s.moves || e.Dropped() != s.dropped || e.Resident() != int64(resident) {
		return fmt.Errorf("cycle %d: moves/dropped/resident %d/%d/%d, the spec %d/%d/%d",
			c, e.Moves(), e.Dropped(), e.Resident(), s.moves, s.dropped, resident)
	}
	return nil
}
