package checkpoint

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// goldenContainer builds the fixed container pinned by testdata/golden_v1.snap.
// Every primitive the codec offers appears at least once, so any change to an
// encoding — varint scheme, length prefix, section framing — moves the bytes.
func goldenContainer() *Writer {
	w := NewWriter()
	a := w.Section("alpha")
	a.Uint(0)
	a.Uint(1)
	a.Uint(127)
	a.Uint(128)
	a.Uint(1<<63 + 41)
	a.Int(0)
	a.Int(-1)
	a.Int(63)
	a.Int(-64)
	a.Int(1 << 40)
	a.Byte(0xab)
	a.Bool(true)
	a.Bool(false)
	a.Float(3.5)
	a.String("wormhole")
	a.BytesField([]byte{0, 1, 2, 0xff})
	b := w.Section("beta.rng")
	for _, v := range rngState(42) {
		b.Uint(v)
	}
	return w
}

// rngState is the four-word state a SplitMix64-seeded xoshiro256** generator
// starts from (core's test workload RNG): the payload of the fixtures'
// "beta.rng" section.
func rngState(seed int64) [4]uint64 {
	var s [4]uint64
	sm := uint64(seed)
	for i := range s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s[i] = z ^ (z >> 31)
	}
	return s
}

func TestRoundtrip(t *testing.T) {
	data := goldenContainer().Bytes()
	r, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if r.Version() != Version {
		t.Fatalf("version = %d, want %d", r.Version(), Version)
	}
	if want := []string{"alpha", "beta.rng"}; !equalStrings(r.Sections(), want) {
		t.Fatalf("sections = %v, want %v", r.Sections(), want)
	}
	d, err := r.Section("alpha")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{0, 1, 127, 128, 1<<63 + 41} {
		if got := d.Uint(); got != want {
			t.Errorf("uint %d = %d, want %d", i, got, want)
		}
	}
	for i, want := range []int64{0, -1, 63, -64, 1 << 40} {
		if got := d.Int(); got != want {
			t.Errorf("int %d = %d, want %d", i, got, want)
		}
	}
	if got := d.Byte(); got != 0xab {
		t.Errorf("byte = %#x", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("bool sequence wrong")
	}
	if got := d.Float(); got != 3.5 {
		t.Errorf("float = %v", got)
	}
	if got := d.String(); got != "wormhole" {
		t.Errorf("string = %q", got)
	}
	if got := d.BytesField(); !bytes.Equal(got, []byte{0, 1, 2, 0xff}) {
		t.Errorf("bytes = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	rd, err := r.Section("beta.rng")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range rngState(42) {
		if got := rd.Uint(); got != want {
			t.Fatalf("rng word %d = %d, want %d", i, got, want)
		}
	}
	if err := rd.Finish(); err != nil {
		t.Fatal(err)
	}
}

// checkGolden pins the exact bytes of one format version against
// testdata/golden_v<version>.snap. The container body is identical across
// versions — only the header version differs — because the primitive codec
// never changed; version bumps re-laid section payloads, not the framing. If
// this fails you changed the encoded form of an existing primitive — see the
// version-bump rule in the package comment. After bumping Version, add a
// TestGoldenV<n> and create its fixture with:
// go test ./internal/checkpoint -run TestGoldenV<n> -update
func checkGolden(t *testing.T, version uint16) {
	t.Helper()
	path := filepath.Join("testdata", fmt.Sprintf("golden_v%d.snap", version))
	w := goldenContainer()
	w.version = version
	got := w.Bytes()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding of the v%d container changed: %d bytes vs %d fixture bytes.\n"+
			"Either revert the codec change or bump checkpoint.Version.", version, len(got), len(want))
	}
	r, err := NewReader(want)
	if err != nil {
		t.Fatalf("fixture no longer decodes: %v", err)
	}
	if r.Version() != version {
		t.Fatalf("fixture version = %d, want %d", r.Version(), version)
	}
	d, err := r.Section("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if d.Version() != version {
		t.Fatalf("section decoder version = %d, want %d", d.Version(), version)
	}
}

func TestGoldenV1(t *testing.T) { checkGolden(t, 1) }
func TestGoldenV2(t *testing.T) { checkGolden(t, 2) }
func TestGoldenV3(t *testing.T) { checkGolden(t, 3) }
func TestGoldenV4(t *testing.T) { checkGolden(t, 4) }
func TestGoldenV5(t *testing.T) { checkGolden(t, 5) }

func TestReaderRejections(t *testing.T) {
	valid := goldenContainer().Bytes()
	cases := []struct {
		name string
		data []byte
		want string // substring of the error
	}{
		{"empty", nil, "header"},
		{"short", []byte("MDX"), "header"},
		{"bad magic", append([]byte("NOTASNAP"), valid[8:]...), "bad magic"},
		{"bit flip", flipBit(valid, len(valid)/2), "crc"},
		{"truncated tail", valid[:len(valid)-6], ""},
		{"trailing garbage", append(append([]byte{}, valid...), 0xde, 0xad), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewReader(tc.data)
			if err == nil {
				t.Fatal("accepted corrupt container")
			}
			if !strings.HasPrefix(err.Error(), "checkpoint: ") {
				t.Fatalf("error %q does not carry the checkpoint prefix", err)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	t.Run("wrong version", func(t *testing.T) {
		data := append([]byte{}, valid...)
		data[9] = 99 // version low byte
		data = fixCRC(data)
		_, err := NewReader(data)
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("err = %v, want version rejection", err)
		}
	})
	t.Run("missing section", func(t *testing.T) {
		r, err := NewReader(valid)
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Section("gamma")
		if err == nil || !strings.Contains(err.Error(), `section "gamma"`) {
			t.Fatalf("err = %v, want missing-section error naming gamma", err)
		}
	})
}

func TestDecoderStickyErrors(t *testing.T) {
	d := NewDecoder("demo", []byte{0x80}) // truncated uvarint
	_ = d.Uint()
	if d.Err() == nil {
		t.Fatal("truncated uvarint accepted")
	}
	first := d.Err()
	// Every later read is a zero-valued no-op preserving the first error.
	if d.Uint() != 0 || d.Int() != 0 || d.Bool() || d.String() != "" || d.Len(1) != 0 {
		t.Fatal("post-error reads returned non-zero values")
	}
	if d.Err() != first {
		t.Fatal("first error was not preserved")
	}
	if !strings.Contains(first.Error(), `section "demo"`) {
		t.Fatalf("error %q does not name the section", first)
	}
}

func TestDecoderBounds(t *testing.T) {
	t.Run("string over-length", func(t *testing.T) {
		var e Encoder
		e.Uint(1 << 40) // claims a petabyte string in 6 bytes
		d := NewDecoder("s", e.Bytes())
		if d.String() != "" || d.Err() == nil {
			t.Fatal("over-length string accepted")
		}
	})
	t.Run("sequence over-count", func(t *testing.T) {
		var e Encoder
		e.Uint(1 << 30)
		d := NewDecoder("s", e.Bytes())
		if d.Len(4) != 0 || d.Err() == nil {
			t.Fatal("over-count sequence accepted")
		}
	})
	t.Run("invalid bool", func(t *testing.T) {
		d := NewDecoder("s", []byte{7})
		if d.Bool() || d.Err() == nil {
			t.Fatal("bool byte 7 accepted")
		}
	})
	t.Run("expect mismatch", func(t *testing.T) {
		var e Encoder
		e.Int(5)
		d := NewDecoder("s", e.Bytes())
		d.Expect(6, "port count")
		if d.Err() == nil || !strings.Contains(d.Err().Error(), "port count") {
			t.Fatalf("err = %v, want port count mismatch", d.Err())
		}
	})
	t.Run("finish trailing", func(t *testing.T) {
		d := NewDecoder("s", []byte{1, 2, 3})
		_ = d.Byte()
		if err := d.Finish(); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("Finish = %v, want trailing-bytes error", err)
		}
	})
}

func flipBit(b []byte, i int) []byte {
	out := append([]byte{}, b...)
	out[i] ^= 0x10
	return out
}

// fixCRC recomputes the footer after a deliberate mutation, so the test hits
// the check behind the CRC rather than the CRC itself.
func fixCRC(b []byte) []byte {
	body := append([]byte{}, b[:len(b)-4]...)
	return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
