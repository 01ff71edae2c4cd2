package engine

import (
	"fmt"

	"sr2201/internal/checkpoint"
	"sr2201/internal/flit"
)

// Engine snapshot/restore. The contract (held by the restore-equivalence
// tests): build the same network the same way, restore a snapshot into it,
// and every subsequent Step produces the identical StateHash — and identical
// Counters — as the engine the snapshot was taken from. Snapshots capture
// only dynamic state; topology, routing functions and hooks are code, not
// data, and must be rebuilt by the caller before DecodeState (the snapshot
// carries a topology fingerprint so a mismatched rebuild fails loudly).
//
// Snapshots must be taken between Steps (never from inside a PreCycle or
// delivery hook): that is the only point where the kernel's per-cycle
// scratch state is guaranteed reconstructible.
//
// One non-obvious piece of state: a cut-through's pending Rewrite is stored
// as its *output*. The encoder applies it to a stack copy of the route
// state's header and encodes the copy, leaving the live header alone.
// Restore derives a rewrite from the field difference (rewriteTo) and
// refuses the snapshot unless that rewrite turns the decoded header into the
// recorded output exactly. This is exact because a rewrite is a fixed set of
// field writes, is only ever applied while the header flit is still
// buffered at the port, and that header cannot change between snapshot and
// traversal (no holder rewrites a header it did not copy); re-encoding a
// restored engine writes the same bytes.
//
// The engine's header pool is not part of the state: restored headers are
// fresh allocations that join the pool when their packets release them.
//
// Each active-set flag (a link's, a switch port's, an endpoint's eject and
// inject flags) is followed by one reserved byte, written as 0 and skipped on
// decode. Snapshots written under eviction hysteresis hold an idle count
// there and may list idle members; those restore as members that their
// phase's next sweep drops, so the simulated state is the same.

// Section names of the engine's state in a checkpoint container.
const (
	secEngineMeta     = "engine.meta"
	secEngineCounters = "engine.counters"
	secEngineNodes    = "engine.nodes"
	secEngineLinks    = "engine.links"
	secEnginePhys     = "engine.phys"
)

// topologyHash digests the built network's structure — node kinds, names,
// port counts, link wiring, physical-channel membership, and the kernel
// config — so DecodeState can refuse a snapshot taken from a different
// network before misinterpreting any of it.
func (e *Engine) topologyHash() uint64 {
	h := fnv64(fnvOffset64)
	h.i64(int64(e.cfg.BufferDepth))
	h.i64(int64(e.cfg.LinkDelay))
	h.i64(int64(e.cfg.Acquire))
	h.i64(int64(e.cfg.EjectRate))
	h.i64(int64(len(e.nodes)))
	for _, n := range e.nodes {
		h.i64(int64(n.Kind))
		h.i64(int64(len(n.Name)))
		for i := 0; i < len(n.Name); i++ {
			h.u64(uint64(n.Name[i]))
		}
		h.i64(int64(len(n.In)))
		h.i64(int64(len(n.Out)))
	}
	h.i64(int64(len(e.links)))
	for _, l := range e.links {
		h.i64(int64(l.from.node.ID))
		h.i64(int64(l.from.idx))
		h.i64(int64(l.to.node.ID))
		h.i64(int64(l.to.idx))
		h.i64(int64(l.delay))
	}
	h.i64(int64(len(e.phys)))
	for _, pc := range e.phys {
		h.i64(int64(len(pc.members)))
		for _, m := range pc.members {
			h.i64(int64(m.node.ID))
			h.i64(int64(m.idx))
		}
	}
	return uint64(h)
}

// EncodeState appends the engine's dynamic state to a checkpoint container
// as the "engine.*" sections.
func (e *Engine) EncodeState(w *checkpoint.Writer) {
	meta := w.Section(secEngineMeta)
	meta.Uint(e.topologyHash())
	meta.Bool(e.cfg.DisableActiveSet)
	meta.Int(e.cycle)
	meta.Int(e.moves)
	meta.Int(e.resident)
	meta.Int(e.dropped)
	meta.Int(int64(len(e.rsFree)))

	ctr := w.Section(secEngineCounters)
	for _, v := range []int64{
		e.ctr.Cycles,
		e.ctr.LinkVisits, e.ctr.LinkVisitsSkipped,
		e.ctr.SwitchPortVisits, e.ctr.SwitchPortVisitsSkipped,
		e.ctr.EjectVisits, e.ctr.EjectVisitsSkipped,
		e.ctr.InjectVisits, e.ctr.InjectVisitsSkipped,
		e.ctr.RouteStatesAllocated, e.ctr.RouteStatesReused,
	} {
		ctr.Int(v)
	}

	nodes := w.Section(secEngineNodes)
	for _, n := range e.nodes {
		nodes.Bool(n.Failed)
		nodes.Int(n.Injected)
		nodes.Int(n.Sent)
		nodes.Int(n.Received)
		if n.Kind == KindEndpoint {
			q := n.pendingInject()
			nodes.Uint(uint64(len(q)))
			for i := range q {
				flit.EncodeFlit(nodes, &q[i])
			}
			nodes.Bool(n.ejectActive)
			nodes.Byte(0) // reserved
			nodes.Bool(n.injectActive)
			nodes.Byte(0) // reserved
		}
		for _, in := range n.In {
			nodes.Uint(uint64(in.n))
			for i := 0; i < in.n; i++ {
				flit.EncodeFlit(nodes, in.at(i))
			}
			nodes.Bool(in.recvHeader != nil)
			if in.recvHeader != nil {
				flit.EncodeHeader(nodes, in.recvHeader)
			}
			nodes.Bool(in.active)
			nodes.Byte(0) // reserved
			nodes.Int(in.BlockedCycles)
			rs := in.route
			nodes.Bool(rs != nil)
			if rs != nil {
				nodes.Bool(rs.sink)
				nodes.Int(rs.since)
				nodes.Bool(rs.provisional)
				flit.EncodeHeader(nodes, rs.header)
				nodes.Bool(rs.rewrite != 0)
				if rs.rewrite != 0 {
					out := *rs.header
					rs.rewrite.Apply(&out)
					flit.EncodeHeader(nodes, &out)
				}
				nodes.Uint(uint64(len(rs.outs)))
				for i, op := range rs.outs {
					nodes.Int(int64(op.idx))
					nodes.Bool(rs.granted[i])
				}
			}
		}
		for _, out := range n.Out {
			nodes.Int(int64(out.credits))
			nodes.Int(int64(out.arb))
			nodes.Int(out.reservedCycle)
			nodes.Int(out.lastReqCycle)
			nodes.Bool(out.conflictCounted)
			nodes.Int(out.BusyCycles)
			nodes.Int(out.ConflictCycles)
		}
	}

	links := w.Section(secEngineLinks)
	for _, l := range e.links {
		in := l.to
		links.Bool(in.linkActive)
		links.Byte(0) // reserved
		links.Uint(uint64(in.fly))
		for i, age := range e.flightAges(in) {
			flit.EncodeFlit(links, in.at(in.n+i))
			links.Int(int64(age))
		}
	}

	phys := w.Section(secEnginePhys)
	for _, pc := range e.phys {
		phys.Int(int64(pc.arb))
		granted := int64(-1)
		if pc.granted != nil {
			granted = int64(pc.memberIndex(pc.granted))
		}
		phys.Int(granted)
		phys.Int(pc.grantedCycle)
	}
}

// Snapshot serializes the engine's dynamic state into one self-contained
// checkpoint container.
func (e *Engine) Snapshot() []byte {
	w := checkpoint.NewWriter()
	e.EncodeState(w)
	return w.Bytes()
}

// Restore replaces the engine's dynamic state with a container produced by
// Snapshot on an identically-built engine. On error the engine is left in an
// unspecified state: decode into a freshly built network and discard it on
// failure.
func (e *Engine) Restore(data []byte) error {
	r, err := checkpoint.NewReader(data)
	if err != nil {
		return err
	}
	return e.DecodeState(r)
}

// DecodeState restores the "engine.*" sections of a checkpoint container
// into this engine, which must have been built identically to the snapshot's
// source (same topology builder, same Config). Hooks (OnDeliver, PreCycle,
// ...) are untouched. See Restore for the error contract.
func (e *Engine) DecodeState(r *checkpoint.Reader) error {
	meta, err := r.Section(secEngineMeta)
	if err != nil {
		return err
	}
	if got, want := meta.Uint(), e.topologyHash(); meta.Err() == nil && got != want {
		return fmt.Errorf("checkpoint: section %q: topology fingerprint %016x does not match this network's %016x", secEngineMeta, got, want)
	}
	if das := meta.Bool(); meta.Err() == nil && das != e.cfg.DisableActiveSet {
		return fmt.Errorf("checkpoint: section %q: DisableActiveSet=%v does not match this engine's %v (visit counters would diverge)", secEngineMeta, das, e.cfg.DisableActiveSet)
	}
	cycle := meta.Int()
	moves := meta.Int()
	resident := meta.Int()
	dropped := meta.Int()
	poolFree := meta.IntAsInt()
	if err := meta.Finish(); err != nil {
		return err
	}
	if poolFree < 0 || poolFree > e.nSwitchIn+len(e.endpoints) {
		return fmt.Errorf("checkpoint: section %q: implausible route-state pool size %d", secEngineMeta, poolFree)
	}

	ctrSec, err := r.Section(secEngineCounters)
	if err != nil {
		return err
	}
	var ctr Counters
	for _, p := range []*int64{
		&ctr.Cycles,
		&ctr.LinkVisits, &ctr.LinkVisitsSkipped,
		&ctr.SwitchPortVisits, &ctr.SwitchPortVisitsSkipped,
		&ctr.EjectVisits, &ctr.EjectVisitsSkipped,
		&ctr.InjectVisits, &ctr.InjectVisitsSkipped,
		&ctr.RouteStatesAllocated, &ctr.RouteStatesReused,
	} {
		*p = ctrSec.Int()
	}
	if err := ctrSec.Finish(); err != nil {
		return err
	}

	// Clear all dynamic state before overlaying the snapshot, so a restore
	// into a used engine does not leak previous traffic.
	e.clearDynamicState()

	nodes, err := r.Section(secEngineNodes)
	if err != nil {
		return err
	}
	for _, n := range e.nodes {
		n.Failed = nodes.Bool()
		n.Injected = nodes.Int()
		n.Sent = nodes.Int()
		n.Received = nodes.Int()
		if n.Kind == KindEndpoint {
			qn := nodes.Len(4)
			for i := 0; i < qn; i++ {
				n.injectQ = append(n.injectQ, decodeFlitChecked(nodes))
			}
			n.injectHead = 0
			n.ejectActive = nodes.Bool()
			nodes.Byte() // reserved
			n.injectActive = nodes.Bool()
			nodes.Byte() // reserved
		}
		for _, in := range n.In {
			bn := nodes.Len(4)
			if nodes.Err() == nil && bn > in.cap {
				return fmt.Errorf("checkpoint: section %q: buffer at %s.%d holds %d flits, capacity %d", secEngineNodes, n.Name, in.idx, bn, in.cap)
			}
			for i := 0; i < bn; i++ {
				in.put(decodeFlitChecked(nodes))
				in.n++
			}
			if nodes.Bool() {
				in.recvHeader = flit.DecodeHeader(nodes)
			}
			in.active = nodes.Bool()
			nodes.Byte() // reserved
			in.BlockedCycles = nodes.Int()
			if nodes.Bool() { // route state present
				rs := &routeState{}
				rs.sink = nodes.Bool()
				rs.since = nodes.Int()
				if nodes.Version() >= 2 {
					rs.provisional = nodes.Bool()
				}
				rs.header = flit.DecodeHeader(nodes)
				if nodes.Bool() { // the rewrite, recorded as its output
					var ok bool
					if rs.rewrite, ok = rewriteTo(rs.header, flit.DecodeHeader(nodes)); nodes.Err() == nil && !ok {
						return fmt.Errorf("checkpoint: section %q: route state at %s.%d records a forwarded header no rewrite produces", secEngineNodes, n.Name, in.idx)
					}
				}
				on := nodes.Len(2)
				if nodes.Err() == nil && rs.sink && on != 0 {
					return fmt.Errorf("checkpoint: section %q: sink route state at %s.%d has %d outputs", secEngineNodes, n.Name, in.idx, on)
				}
				for i := 0; i < on; i++ {
					o := nodes.IntAsInt()
					g := nodes.Bool()
					if nodes.Err() != nil {
						break
					}
					if o < 0 || o >= len(n.Out) {
						return fmt.Errorf("checkpoint: section %q: route state at %s.%d names invalid output %d", secEngineNodes, n.Name, in.idx, o)
					}
					rs.outs = append(rs.outs, n.Out[o])
					rs.granted = append(rs.granted, g)
					if g {
						if n.Out[o].owner != nil {
							return fmt.Errorf("checkpoint: section %q: output %s.%d granted to two inputs", secEngineNodes, n.Name, o)
						}
						n.Out[o].owner = in
						rs.nGranted++
					}
				}
				in.route = rs
			}
			if nodes.Err() == nil && !in.active && n.Kind == KindSwitch && (in.route != nil || in.n > 0) {
				return fmt.Errorf("checkpoint: section %q: busy port %s.%d marked inactive", secEngineNodes, n.Name, in.idx)
			}
		}
		for _, out := range n.Out {
			out.credits = nodes.IntAsInt()
			out.arb = nodes.IntAsInt()
			out.reservedCycle = nodes.Int()
			out.lastReqCycle = nodes.Int()
			out.conflictCounted = nodes.Bool()
			out.BusyCycles = nodes.Int()
			out.ConflictCycles = nodes.Int()
		}
		if nodes.Err() == nil && n.Kind == KindEndpoint {
			if !n.ejectActive && n.In[0].n > 0 {
				return fmt.Errorf("checkpoint: section %q: endpoint %s has arrivals but is eject-inactive", secEngineNodes, n.Name)
			}
			if !n.injectActive && n.InjectQueueLen() > 0 {
				return fmt.Errorf("checkpoint: section %q: endpoint %s has queued packets but is inject-inactive", secEngineNodes, n.Name)
			}
		}
	}
	if err := nodes.Finish(); err != nil {
		return err
	}

	links, err := r.Section(secEngineLinks)
	if err != nil {
		return err
	}
	e.cycle = cycle // flightSlot reads it
	for _, l := range e.links {
		in := l.to
		in.linkActive = links.Bool()
		links.Byte() // reserved
		pn := links.Len(4)
		younger := l.delay // every age so far was at least this
		for i := 0; i < pn; i++ {
			f := decodeFlitChecked(links)
			age := links.IntAsInt()
			if links.Err() != nil {
				break
			}
			if age < 0 || age >= l.delay {
				return fmt.Errorf("checkpoint: section %q: link %d flit age %d outside [0,%d)", secEngineLinks, l.id, age, l.delay)
			}
			// One flit enters a link per cycle and the encoder writes them
			// oldest first, so ages strictly decrease.
			if age >= younger {
				return fmt.Errorf("checkpoint: section %q: link %d flit age %d follows age %d (want oldest first, one flit per cycle)", secEngineLinks, l.id, age, younger)
			}
			younger = age
			if in.n+in.fly == in.cap {
				return fmt.Errorf("checkpoint: section %q: link %d carries more flits than %s.%d has room for", secEngineLinks, l.id, in.node.Name, in.idx)
			}
			in.put(f)
			in.fly++
			s := e.flightSlot(age)
			e.arrivals[s] = append(e.arrivals[s], in)
		}
		if links.Err() == nil && !in.linkActive && in.fly > 0 {
			return fmt.Errorf("checkpoint: section %q: loaded link %d marked inactive", secEngineLinks, l.id)
		}
	}
	if err := links.Finish(); err != nil {
		return err
	}

	phys, err := r.Section(secEnginePhys)
	if err != nil {
		return err
	}
	for _, pc := range e.phys {
		pc.arb = phys.IntAsInt()
		gi := phys.IntAsInt()
		pc.grantedCycle = phys.Int()
		if phys.Err() != nil {
			break
		}
		if gi < -1 || gi >= len(pc.members) {
			return fmt.Errorf("checkpoint: section %q: granted member %d outside channel of %d", secEnginePhys, gi, len(pc.members))
		}
		if gi >= 0 {
			pc.granted = pc.members[gi]
		}
		pc.wantStamp = -1
	}
	if err := phys.Finish(); err != nil {
		return err
	}

	// Cross-checks: credits must mirror downstream occupancy and the resident
	// count must equal the flits actually present, or the kernel's internal
	// invariants ("credit accounting bug" panics) would fire cycles later.
	var present int64
	for _, n := range e.nodes {
		present += int64(n.InjectQueueLen())
		for _, in := range n.In {
			present += int64(in.n)
		}
	}
	for _, l := range e.links {
		present += int64(l.to.fly)
		if want := l.to.cap - l.to.n - l.to.fly; l.from.credits != want {
			return fmt.Errorf("checkpoint: section %q: link %d credits %d, occupancy implies %d", secEngineLinks, l.id, l.from.credits, want)
		}
	}
	if present != resident {
		return fmt.Errorf("checkpoint: section %q: resident count %d but %d flits present", secEngineMeta, resident, present)
	}

	e.moves = moves
	e.resident = resident
	e.dropped = dropped
	// The pool is encoded as a count; the states' identities are immaterial.
	e.rsFree = e.rsFree[:0]
	for i := 0; i < poolFree; i++ {
		e.rsFree = append(e.rsFree, &routeState{})
	}
	e.ctr = ctr
	e.rebuildActiveSets()
	return nil
}

// rewriteTo derives the rewrite that turns h into out, the header the encoder
// recorded: it always sets RC, so a rewrite that changed nothing stays
// non-zero, retargets where Dst or TwoPhase differ, and counts a hop where a
// counter rose by one. ok reports whether it does turn h into out.
func rewriteTo(h, out *flit.Header) (w flit.Rewrite, ok bool) {
	w = flit.SetRC(out.RC)
	if out.Dst != h.Dst || out.TwoPhase != h.TwoPhase {
		w |= flit.Retarget
	}
	if out.DetourHops == h.DetourHops+1 {
		w |= flit.CountDetour
	}
	if out.AdaptiveHops == h.AdaptiveHops+1 {
		w |= flit.CountAdaptive
	}
	got := *h
	w.Apply(&got)
	return w, got == *out
}

// decodeFlitChecked decodes one flit and enforces the kernel invariant that
// the header pointer is present exactly on header-kind flits.
func decodeFlitChecked(d *checkpoint.Decoder) flit.Flit {
	f := flit.DecodeFlit(d)
	if d.Err() != nil {
		return f
	}
	if (f.Kind == flit.KindHeader) != (f.Header != nil) {
		// This flit would panic the allocator cycles later; reject it now.
		d.Fail(fmt.Sprintf("flit pkt%d kind %v has header=%v", f.PacketID, f.Kind, f.Header != nil))
	}
	return f
}

// clearDynamicState empties every queue, buffer, flight and ownership in
// the network, leaving only topology.
func (e *Engine) clearDynamicState() {
	for _, n := range e.nodes {
		n.injectQ = n.injectQ[:0]
		n.injectHead = 0
		n.ejectActive, n.injectActive = false, false
		for _, in := range n.In {
			in.head, in.n, in.fly, in.landsAt = 0, 0, 0, 0
			in.linkActive = false
			in.route = nil
			in.recvHeader = nil
			in.active = false
		}
		for _, out := range n.Out {
			out.owner = nil
			out.pend = out.pend[:0]
			out.pendStamp = -1
		}
	}
	for s := range e.arrivals {
		e.arrivals[s] = e.arrivals[s][:0]
	}
	for _, pc := range e.phys {
		pc.granted = nil
		pc.grantedCycle = -1
		pc.wantStamp = -1
		pc.wants = pc.wants[:0]
	}
}

// rebuildActiveSets reconstitutes the active sets, and the count of marked
// links, from the decoded per-element flags. Under the active set a marked
// link carrying nothing (a purge emptied it) is stale.
func (e *Engine) rebuildActiveSets() {
	e.linksActive = 0
	e.stale = e.stale[:0]
	for _, l := range e.links {
		if p := l.to; p.linkActive {
			e.linksActive++
			if p.fly == 0 && !e.cfg.DisableActiveSet {
				e.stale = append(e.stale, p)
			}
		}
	}
	e.activeAlloc.clear()
	for _, in := range e.fullIn {
		if in.active {
			e.activeAlloc.add(in.pos)
		}
	}
	e.activeEject.clear()
	e.activeInject.clear()
	for _, ep := range e.endpoints {
		if ep.ejectActive {
			e.activeEject.add(ep.epIdx)
		}
		if ep.injectActive {
			e.activeInject.add(ep.epIdx)
		}
	}
}
