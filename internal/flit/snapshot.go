package flit

import (
	"sr2201/internal/checkpoint"
	"sr2201/internal/geom"
)

// Snapshot codecs for flits and headers. The field order here is part of the
// checkpoint format (see the version-bump rule in package checkpoint):
// reordering or retyping any field requires a version bump. Version 2
// appended AdaptiveHops, version 3 appended Epoch and version 5 dropped the
// retired pivot extension's two fields (a two-phase flag and a final
// destination) from between DetourHops and AdaptiveHops; decoding is gated on
// the container version so older snapshots still read cleanly.

// EncodeHeader appends every routing field of a packet header.
func EncodeHeader(e *checkpoint.Encoder, h *Header) {
	e.Uint(h.PacketID)
	geom.EncodeCoord(e, h.Src)
	geom.EncodeCoord(e, h.Dst)
	e.Byte(byte(h.RC))
	e.Int(int64(h.Size))
	e.Int(h.InjectedAt)
	geom.EncodeCoord(e, h.BroadcastOrigin)
	e.Int(int64(h.DetourHops))
	e.Int(int64(h.AdaptiveHops))
	e.Uint(h.Epoch)
}

// DecodeHeader reads a header written by EncodeHeader into a fresh Header.
func DecodeHeader(d *checkpoint.Decoder) *Header {
	h := &Header{}
	h.PacketID = d.Uint()
	h.Src = geom.DecodeCoord(d)
	h.Dst = geom.DecodeCoord(d)
	h.RC = RC(d.Byte())
	h.Size = d.IntAsInt()
	h.InjectedAt = d.Int()
	h.BroadcastOrigin = geom.DecodeCoord(d)
	h.DetourHops = d.IntAsInt()
	if d.Version() < 5 {
		// A two-phase header belongs to the retired pivot extension, which
		// no machine can route any more; an unset one reads as today's.
		if d.Bool() {
			d.Fail("two-phase header of the retired pivot extension")
		}
		geom.DecodeCoord(d)
	}
	if d.Version() >= 2 {
		h.AdaptiveHops = d.IntAsInt()
	}
	if d.Version() >= 3 {
		h.Epoch = d.Uint()
	}
	return h
}

// EncodeFlit appends one flit, inlining its header when present.
func EncodeFlit(e *checkpoint.Encoder, f *Flit) {
	e.Uint(f.PacketID)
	e.Byte(byte(f.Kind))
	e.Int(int64(f.Seq))
	e.Bool(f.Last)
	e.Bool(f.Header != nil)
	if f.Header != nil {
		EncodeHeader(e, f.Header)
	}
}

// DecodeFlit reads one flit. A present header is decoded into a fresh
// allocation owned by the returned flit.
func DecodeFlit(d *checkpoint.Decoder) Flit {
	var f Flit
	f.PacketID = d.Uint()
	f.Kind = Kind(d.Byte())
	f.Seq = d.IntAsInt()
	f.Last = d.Bool()
	if d.Bool() {
		f.Header = DecodeHeader(d)
	}
	return f
}
