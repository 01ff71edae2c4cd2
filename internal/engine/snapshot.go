package engine

import (
	"fmt"

	"sr2201/internal/checkpoint"
	"sr2201/internal/flit"
)

// Engine snapshot/restore, reached through core.Machine.Snapshot/Restore
// (no run is parked this way any more: a parked run re-executes from its
// spec; the machine codec stays for the benchmark's checkpoint probe). The
// contract (held by the restore-equivalence tests): build the same network
// the same way, restore a snapshot into it,
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
//
// The constants 1 and 0 stand where Config's LinkDelay and EjectRate were
// mixed: every link takes one cycle and ejection is unlimited, which is what
// every snapshot written with those fields held, so those snapshots still
// restore.
func (e *Engine) topologyHash() uint64 {
	h := fnv64(fnvOffset64)
	h.i64(int64(e.cfg.BufferDepth))
	h.i64(1)
	h.i64(int64(e.cfg.Acquire))
	h.i64(0)
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
	for _, p := range e.links {
		from, to := e.outPorts[e.in[p].up], e.inPorts[p]
		h.i64(int64(from.Node().ID))
		h.i64(int64(from.idx))
		h.i64(int64(to.Node().ID))
		h.i64(int64(to.idx))
		h.i64(1)
	}
	h.i64(int64(len(e.phys)))
	for _, pc := range e.phys {
		h.i64(int64(len(pc.members)))
		for _, m := range pc.members {
			h.i64(int64(e.outPorts[m].Node().ID))
			h.i64(int64(e.outPorts[m].idx))
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
			nodes.Bool(e.activeEject.has(n.epIdx))
			nodes.Byte(0) // reserved
			nodes.Bool(e.activeInject.has(n.epIdx))
			nodes.Byte(0) // reserved
		}
		for _, in := range n.In {
			r := &e.in[in.id]
			nodes.Uint(uint64(r.n))
			for i := 0; i < int(r.n); i++ {
				flit.EncodeFlit(nodes, e.at(in.id, i))
			}
			nodes.Bool(in.recvHeader != nil)
			if in.recvHeader != nil {
				flit.EncodeHeader(nodes, in.recvHeader)
			}
			nodes.Bool(r.bit >= 0 && e.activeAlloc.has(int(r.bit)))
			nodes.Byte(0) // reserved
			nodes.Int(r.blocked)
			rs := r.route
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
				for i, o := range rs.outs {
					nodes.Int(int64(o.op.idx))
					nodes.Bool(rs.granted[i])
				}
			}
		}
		for _, out := range n.Out {
			nodes.Int(int64(e.credits(out.id)))
			nodes.Int(int64(out.arb))
			nodes.Int(out.reservedCycle)
			nodes.Int(out.lastReqCycle)
			nodes.Bool(out.conflictCounted)
			nodes.Int(e.out[out.id].busy)
			nodes.Int(out.ConflictCycles)
		}
	}

	links := w.Section(secEngineLinks)
	for _, p := range e.links {
		r := &e.in[p]
		links.Bool(r.linkActive)
		links.Byte(0) // reserved
		links.Uint(uint64(r.fly))
		if r.fly > 0 {
			flit.EncodeFlit(links, e.at(p, int(r.n)))
			links.Int(0) // its age: sent last cycle, it lands next
		}
	}

	phys := w.Section(secEnginePhys)
	for _, pc := range e.phys {
		phys.Int(int64(pc.arb))
		granted := int64(-1)
		if pc.granted >= 0 {
			granted = int64(pc.memberIndex(pc.granted))
		}
		phys.Int(granted)
		phys.Int(pc.grantedCycle)
	}
}

// DecodeState restores the "engine.*" sections of a checkpoint container
// into this engine, which must have been built identically to the snapshot's
// source (same topology builder, same Config). Hooks (OnDeliver, PreCycle,
// ...) are untouched. On error the engine is left in an unspecified state:
// decode into a freshly built network and discard it on failure.
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
	if poolFree < 0 || poolFree > len(e.fullIn)+len(e.endpoints) {
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
	credit := make([]int, len(e.out)) // checked against occupancy at the end
	for _, n := range e.nodes {
		n.Failed = nodes.Bool()
		n.Injected = nodes.Int()
		n.Sent = nodes.Int()
		n.Received = nodes.Int()
		if n.Kind == KindEndpoint {
			s := &e.src[n.epIdx]
			qn := nodes.Len(4)
			for i := 0; i < qn; i++ {
				s.q = append(s.q, decodeFlitChecked(nodes))
			}
			if nodes.Bool() {
				e.activeEject.add(n.epIdx)
			}
			nodes.Byte() // reserved
			if nodes.Bool() {
				e.activeInject.add(n.epIdx)
			}
			nodes.Byte() // reserved
		}
		for _, in := range n.In {
			r := &e.in[in.id]
			bn := nodes.Len(4)
			if nodes.Err() == nil && bn > e.cfg.BufferDepth {
				return fmt.Errorf("checkpoint: section %q: buffer at %s.%d holds %d flits, capacity %d", secEngineNodes, n.Name, in.idx, bn, e.cfg.BufferDepth)
			}
			for i := 0; i < bn; i++ {
				*e.at(in.id, i) = decodeFlitChecked(nodes)
				r.n++
			}
			if nodes.Bool() {
				in.recvHeader = flit.DecodeHeader(nodes)
			}
			active := nodes.Bool()
			nodes.Byte() // reserved
			r.blocked = nodes.Int()
			if nodes.Bool() { // route state present
				rs := newRouteStateValue()
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
					rs.outs = append(rs.outs, outRef{n.Out[o], n.port0 + int32(o), e.out[n.port0+int32(o)].down})
					rs.shared = rs.shared || e.out[n.port0+int32(o)].phys >= 0
					rs.granted = append(rs.granted, g)
					if g {
						if n.Out[o].owner != nil {
							return fmt.Errorf("checkpoint: section %q: output %s.%d granted to two inputs", secEngineNodes, n.Name, o)
						}
						n.Out[o].owner = in
						rs.nGranted++
					}
				}
				r.route = rs
			}
			if nodes.Err() != nil {
				break
			}
			if n.Kind == KindEndpoint && active {
				return fmt.Errorf("checkpoint: section %q: endpoint port %s.%d marked allocation-active", secEngineNodes, n.Name, in.idx)
			}
			if !active && n.Kind == KindSwitch && (r.route != nil || r.n > 0) {
				return fmt.Errorf("checkpoint: section %q: busy port %s.%d marked inactive", secEngineNodes, n.Name, in.idx)
			}
			if active {
				e.activeAlloc.add(int(r.bit))
			}
		}
		for _, out := range n.Out {
			credit[out.id] = nodes.IntAsInt()
			out.arb = nodes.IntAsInt()
			out.reservedCycle = nodes.Int()
			out.lastReqCycle = nodes.Int()
			out.conflictCounted = nodes.Bool()
			e.out[out.id].busy = nodes.Int()
			out.ConflictCycles = nodes.Int()
		}
		if nodes.Err() == nil && n.Kind == KindEndpoint {
			if !e.activeEject.has(n.epIdx) && e.in[n.In[0].id].n > 0 {
				return fmt.Errorf("checkpoint: section %q: endpoint %s has arrivals but is eject-inactive", secEngineNodes, n.Name)
			}
			if !e.activeInject.has(n.epIdx) && n.InjectQueueLen() > 0 {
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
	for id, p := range e.links {
		r := &e.in[p]
		r.linkActive = links.Bool()
		links.Byte() // reserved
		pn := links.Len(4)
		if links.Err() == nil && pn > 1 {
			// One flit enters a link per cycle and lands in the next.
			return fmt.Errorf("checkpoint: section %q: link %d carries %d flits (a link holds one)", secEngineLinks, id, pn)
		}
		if pn == 1 {
			f := decodeFlitChecked(links)
			age := links.Int()
			if links.Err() != nil {
				break
			}
			if age != 0 {
				return fmt.Errorf("checkpoint: section %q: link %d flit age %d (a flit lands the cycle after it is sent)", secEngineLinks, id, age)
			}
			if int(r.n) == e.cfg.BufferDepth {
				return fmt.Errorf("checkpoint: section %q: link %d carries more flits than %s.%d has room for", secEngineLinks, id, e.inPorts[p].Node().Name, e.inPorts[p].idx)
			}
			*e.at(p, int(r.n)) = f
			r.fly = 1
			e.arrivals = append(e.arrivals, p)
		}
		if links.Err() == nil && !r.linkActive && r.fly > 0 {
			return fmt.Errorf("checkpoint: section %q: loaded link %d marked inactive", secEngineLinks, id)
		}
		if r.linkActive {
			// Under the active set a marked link carrying nothing (a purge
			// emptied it) is stale.
			e.linksActive++
			if r.fly == 0 && !e.cfg.DisableActiveSet {
				e.stale = append(e.stale, p)
			}
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
			present += int64(e.in[in.id].n)
		}
	}
	for _, p := range e.links {
		present += int64(e.in[p].fly)
	}
	for o, c := range credit {
		if want := int(e.credits(int32(o))); c != want {
			op := e.outPorts[o]
			return fmt.Errorf("checkpoint: section %q: %s.out%d has %d credits, occupancy implies %d", secEngineNodes, op.Node().Name, op.idx, c, want)
		}
	}
	if present != resident {
		return fmt.Errorf("checkpoint: section %q: resident count %d but %d flits present", secEngineMeta, resident, present)
	}

	e.cycle = cycle
	e.moves = moves
	e.resident = resident
	e.dropped = dropped
	// The pool is encoded as a count; the states' identities are immaterial.
	e.rsFree = e.rsFree[:0]
	for i := 0; i < poolFree; i++ {
		e.rsFree = append(e.rsFree, newRouteStateValue())
	}
	e.ctr = ctr
	return nil
}

// rewriteTo derives the rewrite that turns h into out, the header the encoder
// recorded: it always sets RC, so a rewrite that changed nothing stays
// non-zero, and counts a hop where a counter rose by one. ok reports whether
// it does turn h into out.
func rewriteTo(h, out *flit.Header) (w flit.Rewrite, ok bool) {
	w = flit.SetRC(out.RC)
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

// clearDynamicState empties every queue, buffer, flight, ownership and
// active set in the network, leaving only topology.
func (e *Engine) clearDynamicState() {
	for i := range e.src {
		e.src[i].q, e.src[i].head = e.src[i].q[:0], 0
	}
	for p := range e.in {
		r := &e.in[p]
		r.head, r.n, r.fly = 0, 0, 0
		r.linkActive = false
		r.route = nil
		e.inPorts[p].recvHeader = nil
		op := e.outPorts[p]
		op.owner = nil
		op.pend = op.pend[:0]
		op.pendStamp = -1
	}
	clear(e.slab)
	e.arrivals = e.arrivals[:0]
	for _, pc := range e.phys {
		pc.granted = -1
		pc.grantedCycle = -1
		pc.wantStamp = -1
		pc.wants = pc.wants[:0]
	}
	e.activeAlloc.clear()
	e.activeEject.clear()
	e.activeInject.clear()
	e.linksActive, e.stale = 0, e.stale[:0]
}
