// Package flit defines the unit of data transmission in the simulated
// network. Following the paper's Section 3.2, each packet consists of a
// header carrying routing information — the receiving address (d coordinates)
// and the route-change (RC) bit — followed by data flits. Under cut-through
// switching the header flit governs the route and the remaining flits follow
// it through the circuit it opens.
package flit

import (
	"fmt"

	"sr2201/internal/geom"
)

// RC is the route-change field in the packet header (paper Fig. 4). The
// receiving address is only interpreted directly when RC is Normal; the
// other values select one of the special routing modes.
type RC uint8

const (
	// RCNormal selects dimension-order (X-Y) routing to the receiving address.
	RCNormal RC = 0
	// RCBroadcastRequest routes the packet point-to-point to the serialized
	// crossbar (S-XB), which will replay it as a broadcast.
	RCBroadcastRequest RC = 1
	// RCBroadcast marks a packet that the S-XB is fanning out to all PEs.
	RCBroadcast RC = 2
	// RCDetour marks a packet that is riding the detour path to the detour
	// crossbar (D-XB), where the bit is reset to RCNormal.
	RCDetour RC = 3
)

// String renders the RC bit with the paper's Fig. 4 vocabulary.
func (rc RC) String() string {
	switch rc {
	case RCNormal:
		return "normal"
	case RCBroadcastRequest:
		return "broadcast-request"
	case RCBroadcast:
		return "broadcast"
	case RCDetour:
		return "detour"
	default:
		return fmt.Sprintf("RC(%d)", uint8(rc))
	}
}

// Header is the routing information carried by a packet's header flit.
type Header struct {
	// PacketID identifies the packet uniquely within one simulation.
	PacketID uint64
	// Src is the coordinate of the originating PE.
	Src geom.Coord
	// Dst is the receiving address. It is meaningful when RC is RCNormal or
	// RCDetour; broadcast packets address every PE.
	Dst geom.Coord
	// RC is the route-change field.
	RC RC
	// Size is the total packet length in flits, header included.
	Size int
	// InjectedAt is the simulation cycle at which the header flit entered the
	// source PE's injection queue; used for latency accounting.
	InjectedAt int64
	// BroadcastOrigin preserves Src for broadcast packets across the S-XB
	// replay so delivery accounting can attribute copies to the sender.
	BroadcastOrigin geom.Coord
	// DetourHops counts how many switches forwarded the packet while its RC
	// bit was RCDetour. Used to verify that "the packet leaves no trace of
	// the detour routing behind" — the counter lives in simulator-side
	// accounting, not in header bits the destination could observe.
	DetourHops int
	// TwoPhase and FinalDst implement the pivot-routing extension (DESIGN.md
	// A3, beyond the paper): the packet first routes to the intermediate Dst;
	// the router there rewrites Dst to FinalDst and clears TwoPhase, and
	// dimension-order routing resumes. The extension costs these extra
	// header bits — hardware the SR2201 did not have.
	TwoPhase bool
	FinalDst geom.Coord
	// AdaptiveHops counts how many hops the packet took on a non-escape
	// virtual channel under escape-VC adaptive routing. Like DetourHops it is
	// simulator-side accounting, not header bits: a delivered packet with
	// AdaptiveHops > 0 strayed from the dimension-ordered escape path at
	// least once. Always 0 when the machine runs without virtual channels.
	AdaptiveHops int
	// Epoch is the routing-table generation the packet was injected under
	// (core's online-reconfiguration counter). Every routing decision for
	// the packet consults the table generation whose boundary covers this
	// stamp, so an in-flight packet keeps its injection-time table across a
	// live reconfiguration. Always 0 when reconfiguration is off.
	Epoch uint64
}

// Rewrite is what a switch does to the header of the copies it forwards: an
// RC transition (the S-XB turns a request into a broadcast, a switch next to
// a fault starts a detour, the D-XB ends it), the pivot extension's
// retarget, and the simulator-side hop counts. Rewrites combine with |, at
// most one RC each; the zero value rewrites nothing.
type Rewrite uint8

const (
	// rcSet marks a rewrite that sets RC to the value in its low two bits.
	rcSet Rewrite = 4
	// Retarget points a two-phase packet at FinalDst and clears TwoPhase.
	Retarget Rewrite = 8
	// CountDetour counts a hop taken in detour mode (DetourHops).
	CountDetour Rewrite = 16
	// CountAdaptive counts a hop taken on an adaptive lane (AdaptiveHops).
	CountAdaptive Rewrite = 32
)

// SetRC is the rewrite that sets RC to rc, one of the four Fig. 4 values.
func SetRC(rc RC) Rewrite { return rcSet | Rewrite(rc&3) }

// Apply rewrites h in place.
func (w Rewrite) Apply(h *Header) {
	if w&Retarget != 0 {
		h.Dst, h.TwoPhase = h.FinalDst, false
	}
	if w&rcSet != 0 {
		h.RC = RC(w & 3)
	}
	if w&CountDetour != 0 {
		h.DetourHops++
	}
	if w&CountAdaptive != 0 {
		h.AdaptiveHops++
	}
}

// Kind distinguishes the position of a flit within its packet.
type Kind uint8

const (
	// KindHeader is the first flit; it carries the Header.
	KindHeader Kind = iota
	// KindBody is an interior data flit.
	KindBody
	// KindTail is the last flit; its passage releases the circuit.
	KindTail
)

// String names the flit kind.
func (k Kind) String() string {
	switch k {
	case KindHeader:
		return "header"
	case KindBody:
		return "body"
	case KindTail:
		return "tail"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Flit is one fixed-size unit of a packet. A single-flit packet has a flit
// that is both header and tail: Kind is KindHeader and Last is true.
type Flit struct {
	// Header is non-nil exactly on the header flit.
	Header *Header
	// PacketID duplicates Header.PacketID on every flit so body/tail flits
	// can be attributed without chasing the header.
	PacketID uint64
	// Kind is the flit's position class.
	Kind Kind
	// Seq is the flit's 0-based position within the packet.
	Seq int
	// Last reports whether this flit releases the circuit (tail, or a
	// header-only packet).
	Last bool
}

// AppendPacket appends the flits of a size-flit packet headed by h to dst
// and returns the grown slice; the header's Size field is set. It is the
// allocation-free counterpart of NewPacket for callers that store flits by
// value (the engine's inject queues).
func AppendPacket(dst []Flit, h *Header, size int) []Flit {
	if size < 1 {
		panic(fmt.Sprintf("flit: packet size %d < 1", size))
	}
	h.Size = size
	dst = append(dst, Flit{Header: h, PacketID: h.PacketID, Kind: KindHeader, Seq: 0, Last: size == 1})
	for i := 1; i < size; i++ {
		k := KindBody
		if i == size-1 {
			k = KindTail
		}
		dst = append(dst, Flit{PacketID: h.PacketID, Kind: k, Seq: i, Last: i == size-1})
	}
	return dst
}

// NewPacket builds the flit sequence for one packet with the given header.
// size must be >= 1 (a lone header flit); the header's Size field is set.
func NewPacket(h *Header, size int) []*Flit {
	if size < 1 {
		panic(fmt.Sprintf("flit: packet size %d < 1", size))
	}
	h.Size = size
	flits := make([]*Flit, size)
	flits[0] = &Flit{Header: h, PacketID: h.PacketID, Kind: KindHeader, Seq: 0, Last: size == 1}
	for i := 1; i < size; i++ {
		k := KindBody
		if i == size-1 {
			k = KindTail
		}
		flits[i] = &Flit{PacketID: h.PacketID, Kind: k, Seq: i, Last: i == size-1}
	}
	return flits
}

// String renders a flit for traces, e.g. "pkt7.header" or "pkt7.body[2]".
func (f *Flit) String() string {
	switch f.Kind {
	case KindHeader:
		return fmt.Sprintf("pkt%d.header", f.PacketID)
	case KindTail:
		return fmt.Sprintf("pkt%d.tail[%d]", f.PacketID, f.Seq)
	default:
		return fmt.Sprintf("pkt%d.body[%d]", f.PacketID, f.Seq)
	}
}
