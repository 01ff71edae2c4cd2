package engine

// StateHash digests the engine's dynamic state — every flit position, every
// cut-through ownership, every credit counter — into one FNV-1a value. Two
// engines built identically and stepped the same number of cycles must
// produce equal hashes; the golden determinism tests and the active-set
// differential tests compare per-cycle hash streams to pin the kernel's
// bit-for-bit reproducibility guarantee (DESIGN.md §5).
//
// The hash walks the full network in creation order, deliberately ignoring
// the active sets, so it cannot mask a scheduling bug: a flit the scheduler
// lost track of still hashes differently from a flit that moved.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

type fnv64 uint64

func (h *fnv64) u64(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= fnvPrime64
		v >>= 8
	}
	*h = fnv64(x)
}

func (h *fnv64) i64(v int64) { h.u64(uint64(v)) }

// StateHash returns the FNV-1a digest of the current simulation state.
func (e *Engine) StateHash() uint64 {
	h := fnv64(fnvOffset64)
	h.i64(e.cycle)
	h.i64(e.resident)
	h.i64(e.moves)
	h.i64(e.dropped)
	for _, n := range e.nodes {
		h.i64(int64(n.ID))
		q := n.pendingInject()
		h.i64(int64(len(q)))
		for i := range q {
			f := &q[i]
			h.u64(f.PacketID)
			h.i64(int64(f.Seq))
		}
		for _, in := range n.In {
			h.i64(int64(in.n))
			for i := 0; i < in.n; i++ {
				f := in.at(i)
				h.u64(f.PacketID)
				h.i64(int64(f.Seq))
			}
			if rs := in.route; rs != nil {
				h.u64(1)
				if rs.header != nil {
					h.u64(rs.header.PacketID)
				}
				if rs.sink {
					h.u64(0xdead)
				}
				if rs.provisional {
					// Hashed only when set, so runs without adaptive routing
					// produce the exact pre-VC hash stream.
					h.u64(0xadaf)
				}
				h.i64(rs.since)
				for i, o := range rs.outs {
					h.i64(int64(o))
					if rs.granted[i] {
						h.u64(1)
					} else {
						h.u64(0)
					}
				}
			} else {
				h.u64(0)
			}
		}
		for _, out := range n.Out {
			h.i64(int64(out.credits))
			h.i64(int64(out.arb))
			if out.owner != nil {
				h.u64(uint64(out.owner.ordKey) + 1)
			} else {
				h.u64(0)
			}
		}
	}
	for _, l := range e.links {
		h.i64(int64(l.n))
		for age := l.delay - 1; age >= 0 && l.n > 0; age-- {
			if sl := l.ageSlot(e.cycle, age); sl.full {
				h.u64(sl.f.PacketID)
				h.i64(int64(sl.f.Seq))
				h.i64(int64(age))
			}
		}
	}
	for _, pc := range e.phys {
		h.i64(int64(pc.arb))
	}
	return uint64(h)
}
