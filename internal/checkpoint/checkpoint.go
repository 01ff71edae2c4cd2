// Package checkpoint implements the versioned binary container and the
// primitive codec behind two uses: a machine snapshot (core.Machine's
// Snapshot/Restore, with the engine, flit, fault and geom codecs under it)
// and a completed campaign cell's persisted result (campaign.EncodeResult).
// The snapshot contract: Restore(Snapshot(x)) followed by N steps produces
// the identical per-cycle StateHash stream as the uninterrupted machine. No
// run is parked as a snapshot — a parked run re-executes from its spec — so
// the machine codec lives on only for the benchmark's checkpoint probe.
//
// # Container format (version 1)
//
// A snapshot is a flat byte string:
//
//	offset 0 : magic "MDXSNAP\n" (8 bytes)
//	offset 8 : format version, big-endian uint16
//	offset 10: section count, big-endian uint32
//	then per section, in the order sections were added:
//	          name length (uint8), name bytes,
//	          payload length (big-endian uint32), payload bytes
//	footer   : IEEE CRC32 of every preceding byte, big-endian uint32
//
// Section payloads are streams of the primitives implemented by Encoder /
// Decoder: unsigned LEB128 varints, zigzag signed varints, single bytes,
// length-prefixed byte strings. All multi-byte fixed-width integers in the
// container framing are big-endian.
//
// # Version-bump rule
//
// The golden fixture tests (TestGoldenV1 onwards, one fixture per version)
// pin the exact bytes each version produces. Any change that alters the encoded form of an existing field —
// reordering fields, widening a type, renaming a section — MUST increment
// Version and teach the decoder to reject (or migrate) older versions
// explicitly. Adding a new section at the end is also a version bump:
// decoders look sections up by name, but the version is the only honest
// statement of what a snapshot may contain. Never reuse a version number for
// two different layouts.
//
// # Error contract
//
// Every decode error names where decoding failed: the container header, the
// CRC footer, or the offending section by name ("checkpoint: section
// \"engine.ports\": ..."). FuzzSnapshotDecode holds decoding to this
// contract: arbitrary input never panics and never allocates more than the
// input could justify.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Version is the current snapshot format version. Version 2 added the
// virtual-channel fields (flit.Header.AdaptiveHops, the engine's provisional
// route-state flag, core.Delivery.Adaptive). Version 3 added the online-
// reconfiguration fields (flit.Header.Epoch, the machine's routing-epoch
// counter and generation descriptors, the reconfiguration manager's event
// log, the injector's drain accounting). Version 4 re-laid the
// campaign.single section: a single-run container is now the cell's sections
// plus the renderer's three print cursors, and a pre-4 single container is
// rejected by that section's name and the version (campaign.cell and every
// other section are unchanged and keep decoding versions 1 through 3).
// Version 5 dropped the retired pivot extension's two flit.Header fields
// (a two-phase flag and a final destination); older containers still
// decode, and one holding a two-phase header is refused.
// Version 6 dropped the retired reconfiguration drain count from the
// campaign.result section; a pre-6 cell result is refused by that section's
// name and the version (so the cell re-runs), and every other section keeps
// decoding older versions.
// Version 7 changed no layout: a reconfiguration fallback now installs the
// attempt's chosen candidate, not the current variant's recompile, and an
// attempt that would change no route commits nothing, so the same cell spec
// stores different results. A pre-7 cell result is refused by the
// campaign.result section's name and the version (so the cell re-runs), and
// every other section keeps decoding older versions.
// Writers always emit the current version, and section decoders consult
// Decoder.Version to skip fields an older container cannot contain.
const Version uint16 = 7

// minVersion is the oldest container version this build still reads.
const minVersion uint16 = 1

// magic opens every snapshot container.
const magic = "MDXSNAP\n"

// maxSections bounds the section-count header field; real snapshots use a
// few dozen sections, so anything larger is corruption, and the bound keeps
// a hostile count from sizing an allocation.
const maxSections = 1 << 16

// A Writer assembles a snapshot container. Sections are emitted in the
// order they are added.
type Writer struct {
	version  uint16
	names    []string
	payloads []*Encoder
}

// NewWriter starts a container with the current format version.
func NewWriter() *Writer { return &Writer{version: Version} }

// Section adds a named section and returns the encoder for its payload.
// Names must be unique within one container.
func (w *Writer) Section(name string) *Encoder {
	for _, n := range w.names {
		if n == name {
			panic(fmt.Sprintf("checkpoint: duplicate section %q", name))
		}
	}
	if len(name) == 0 || len(name) > 255 {
		panic(fmt.Sprintf("checkpoint: section name %q length out of range", name))
	}
	enc := &Encoder{}
	w.names = append(w.names, name)
	w.payloads = append(w.payloads, enc)
	return enc
}

// Bytes serializes the container, including the CRC footer.
func (w *Writer) Bytes() []byte {
	size := len(magic) + 2 + 4
	for i, n := range w.names {
		size += 1 + len(n) + 4 + len(w.payloads[i].buf)
	}
	size += 4 // crc
	out := make([]byte, 0, size)
	out = append(out, magic...)
	out = binary.BigEndian.AppendUint16(out, w.version)
	out = binary.BigEndian.AppendUint32(out, uint32(len(w.names)))
	for i, n := range w.names {
		out = append(out, byte(len(n)))
		out = append(out, n...)
		out = binary.BigEndian.AppendUint32(out, uint32(len(w.payloads[i].buf)))
		out = append(out, w.payloads[i].buf...)
	}
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	return out
}

// A Reader parses a snapshot container and hands out per-section decoders.
type Reader struct {
	version  uint16
	names    []string
	payloads [][]byte
}

// NewReader validates the container framing (magic, version, section table,
// CRC) without interpreting section payloads.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < len(magic)+2+4+4 {
		return nil, fmt.Errorf("checkpoint: header: container truncated (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("checkpoint: header: bad magic")
	}
	body, footer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(footer); got != want {
		return nil, fmt.Errorf("checkpoint: crc: checksum mismatch (got %08x, stored %08x)", got, want)
	}
	r := &Reader{version: binary.BigEndian.Uint16(body[len(magic):])}
	if r.version < minVersion || r.version > Version {
		return nil, fmt.Errorf("checkpoint: header: unsupported version %d (this build reads %d through %d)", r.version, minVersion, Version)
	}
	count := binary.BigEndian.Uint32(body[len(magic)+2:])
	if count > maxSections {
		return nil, fmt.Errorf("checkpoint: header: implausible section count %d", count)
	}
	off := len(magic) + 6
	for i := uint32(0); i < count; i++ {
		if off >= len(body) {
			return nil, fmt.Errorf("checkpoint: header: truncated before section %d of %d", i+1, count)
		}
		nameLen := int(body[off])
		off++
		if nameLen == 0 || off+nameLen+4 > len(body) {
			return nil, fmt.Errorf("checkpoint: header: truncated section %d name/length", i+1)
		}
		name := string(body[off : off+nameLen])
		off += nameLen
		payLen := int(binary.BigEndian.Uint32(body[off:]))
		off += 4
		if payLen > len(body)-off {
			return nil, fmt.Errorf("checkpoint: section %q: payload length %d exceeds container", name, payLen)
		}
		r.names = append(r.names, name)
		r.payloads = append(r.payloads, body[off:off+payLen])
		off += payLen
	}
	if off != len(body) {
		return nil, fmt.Errorf("checkpoint: header: %d trailing bytes after last section", len(body)-off)
	}
	return r, nil
}

// Version reports the container's format version.
func (r *Reader) Version() uint16 { return r.version }

// Section returns a decoder for the named section's payload. The decoder
// carries the container's format version so section codecs can skip fields
// older versions cannot contain.
func (r *Reader) Section(name string) (*Decoder, error) {
	for i, n := range r.names {
		if n == name {
			d := NewDecoder(name, r.payloads[i])
			d.version = r.version
			return d, nil
		}
	}
	return nil, fmt.Errorf("checkpoint: section %q: missing", name)
}
