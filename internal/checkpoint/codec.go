package checkpoint

import (
	"encoding/binary"
	"fmt"
)

// An Encoder builds one section payload out of primitive values. The zero
// value is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Uint appends an unsigned LEB128 varint.
func (e *Encoder) Uint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int appends a zigzag signed varint.
func (e *Encoder) Int(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// A Decoder reads one section payload. Errors are sticky: after the first
// failure every getter returns a zero value and Err reports the failure,
// naming the section and offset, so decode routines can read a whole record
// and check once. Length-prefixed reads never allocate more than the
// remaining input can justify.
type Decoder struct {
	section string
	buf     []byte
	off     int
	err     error
	version uint16
}

// NewDecoder wraps raw payload bytes; section is used in error messages. The
// decoder reports the current format version; Reader.Section overrides it
// with the container's actual version.
func NewDecoder(section string, payload []byte) *Decoder {
	return &Decoder{section: section, buf: payload, version: Version}
}

// Version reports the container format version the payload was written under
// (the current Version for decoders not obtained through a Reader). Section
// codecs branch on it to skip fields older containers cannot contain.
func (d *Decoder) Version() uint16 { return d.version }

// Err reports the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining reports the unread byte count.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish errors unless the payload was consumed exactly.
func (d *Decoder) Finish() error {
	if d.err == nil && d.off != len(d.buf) {
		d.fail(fmt.Sprintf("%d trailing bytes", len(d.buf)-d.off))
	}
	return d.err
}

// Fail records a caller-detected semantic error (an invariant violation in
// otherwise well-formed bytes) with the section's error framing. Like codec
// errors it is sticky: only the first failure is kept.
func (d *Decoder) Fail(msg string) { d.fail(msg) }

func (d *Decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("checkpoint: section %q: %s at offset %d", d.section, msg, d.off)
	}
}

// Uint reads an unsigned varint.
func (d *Decoder) Uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong uvarint")
		return 0
	}
	d.off += n
	return v
}

// Int reads a zigzag signed varint.
func (d *Decoder) Int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.off += n
	return v
}

// IntAsInt reads a signed varint and narrows it to int, failing on overflow.
func (d *Decoder) IntAsInt() int {
	v := d.Int()
	iv := int(v)
	if int64(iv) != v {
		d.fail(fmt.Sprintf("value %d overflows int", v))
		return 0
	}
	return iv
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated byte")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Bool reads a boolean, rejecting bytes other than 0 and 1.
func (d *Decoder) Bool() bool {
	b := d.Byte()
	if d.err != nil {
		return false
	}
	if b > 1 {
		d.fail(fmt.Sprintf("invalid bool byte %#02x", b))
		return false
	}
	return b == 1
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.fail(fmt.Sprintf("byte string length %d exceeds %d remaining", n, d.Remaining()))
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Len reads an element count for a sequence whose elements occupy at least
// minBytes each, rejecting counts the remaining payload cannot hold. This is
// the allocation cap for slice prealloc: a hostile count cannot exceed the
// input length.
func (d *Decoder) Len(minBytes int) int {
	n := d.Uint()
	if d.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(d.Remaining()/minBytes) {
		d.fail(fmt.Sprintf("sequence length %d exceeds remaining payload", n))
		return 0
	}
	return int(n)
}
