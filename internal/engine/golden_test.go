package engine

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

	"sr2201/internal/checkpoint"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// The engine snapshot fixture: a loaded eight-switch chain at the kernel
// configuration every machine runs (DefaultConfig: one-cycle links), stopped
// while several links carry a flit. It pins the snapshot's bytes, the
// StateHash at the stop, and a digest of the StateHash stream of the next
// chainStream cycles, in which the chain drains. Regenerate (only for a
// deliberate format change) with
//
//	go test ./internal/engine -run TestGoldenChain -update
const (
	chainSteps  = 14
	chainStream = 400
)

var (
	chainSnapPath = filepath.Join("testdata", "chain.snap")
	chainHashPath = filepath.Join("testdata", "chain.hash")
)

func chainFixtureBuild() *Engine {
	e, _ := chainScenario(DefaultConfig(), 8)
	return e
}

// chainFixture is the fixture's engine at the stop.
func chainFixture() *Engine {
	e := chainFixtureBuild()
	for i := 0; i < chainSteps; i++ {
		e.Step()
	}
	return e
}

// streamDigest steps e cycles times and folds every StateHash into one value.
func streamDigest(e *Engine, cycles int) uint64 {
	h := fnv64(fnvOffset64)
	for i := 0; i < cycles; i++ {
		e.Step()
		h.u64(e.StateHash())
	}
	return uint64(h)
}

func TestGoldenChain(t *testing.T) {
	e := chainFixture()
	loaded := 0
	for _, p := range e.links {
		if e.in[p].fly > 0 {
			loaded++
		}
	}
	if loaded < 3 {
		t.Fatalf("fixture scenario stops with %d loaded links, want at least 3", loaded)
	}

	snap := e.Snapshot()
	hash := e.StateHash()
	stream := streamDigest(e, chainStream)
	if !e.Quiescent() {
		t.Fatalf("fixture scenario did not drain in %d cycles", chainStream)
	}
	text := []byte(fmt.Sprintf("state_hash %016x\nstream_digest %016x\n", hash, stream))
	if *update {
		if err := os.WriteFile(chainSnapPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(chainHashPath, text, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantSnap, err := os.ReadFile(chainSnapPath)
	if err != nil {
		t.Fatal(err)
	}
	wantText, err := os.ReadFile(chainHashPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, wantSnap) {
		t.Errorf("snapshot differs from %s (%d vs %d bytes)", chainSnapPath, len(snap), len(wantSnap))
	}
	if !bytes.Equal(text, wantText) {
		t.Errorf("hashes differ from %s:\ngot  %swant %s", chainHashPath, text, wantText)
	}

	// The recorded bytes restore into a fresh build and replay the same run,
	// with the same counters.
	r := chainFixtureBuild()
	if err := r.Restore(wantSnap); err != nil {
		t.Fatal(err)
	}
	if got := r.StateHash(); got != hash {
		t.Fatalf("restored hash %016x, want %016x", got, hash)
	}
	if got := streamDigest(r, chainStream); got != stream {
		t.Errorf("restored run diverged: stream digest %016x, want %016x", got, stream)
	}
	if r.Counters() != e.Counters() {
		t.Errorf("restored counters %+v, want %+v", r.Counters(), e.Counters())
	}
}

// TestGoldenChainLinger covers the snapshot layout written under eviction
// hysteresis, which no checked-in snapshot holds: there, an active-set flag's
// reserved byte held an idle count, and a member could stay listed while
// idle. The fixture is patched that way (every idle link marked active, its
// reserved byte non-zero). The lingering links restore as members the next
// landing phase drops, so the run replays the same StateHash stream; only
// the link-visit counters differ.
func TestGoldenChainLinger(t *testing.T) {
	data, err := os.ReadFile(chainSnapPath)
	if err != nil {
		t.Fatal(err)
	}
	patched := lingerLinks(t, data)

	e := chainFixtureBuild()
	if err := e.Restore(data); err != nil {
		t.Fatal(err)
	}
	r := chainFixtureBuild()
	if err := r.Restore(patched); err != nil {
		t.Fatal(err)
	}
	if r.StateHash() != e.StateHash() {
		t.Fatalf("patched restore hash %016x, want %016x", r.StateHash(), e.StateHash())
	}
	if got, want := streamDigest(r, chainStream), streamDigest(e, chainStream); got != want {
		t.Errorf("patched run diverged: stream digest %016x, want %016x", got, want)
	}
	if r.Counters().LinkVisits <= e.Counters().LinkVisits {
		t.Errorf("lingering links were not visited: %d link visits, unpatched %d", r.Counters().LinkVisits, e.Counters().LinkVisits)
	}
}

// TestRestoreRejectsLinkOverload: a link carries at most one flit, sent
// last cycle. Restore refuses a snapshot whose link holds a flit of another
// age, or a second flit.
func TestRestoreRejectsLinkOverload(t *testing.T) {
	data, err := os.ReadFile(chainSnapPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		patch      func(payload []byte, l linkRecord)
	}{
		{"age 1", "flit age 1", func(p []byte, l linkRecord) { p[l.age] = 2 }}, // zigzag varint
		{"two flits", "carries 2 flits", func(p []byte, l linkRecord) { p[l.at+2] = 2 }},
	} {
		out, payload, recs := linkRecords(t, data)
		patched := false
		for _, l := range recs {
			if l.fly == 1 && !patched {
				tc.patch(payload, l)
				patched = true
			}
		}
		if !patched {
			t.Fatal("the fixture has no loaded link")
		}
		err := chainFixtureBuild().Restore(reseal(out))
		if err == nil || !strings.Contains(err.Error(), `section "engine.links"`) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore returned %v, want an engine.links refusal saying %q", tc.name, err, tc.want)
		}
	}
}

// linkRecord locates one link's record in the engine.links payload: its
// active flag at at (the reserved byte follows, then the flight count), how
// many flits it carries, and the offset of the age of the one it carries.
type linkRecord struct{ at, fly, age int }

// linkRecords returns a copy of the container data, the engine.links payload
// within the copy, and the section's link records.
func linkRecords(t *testing.T, data []byte) (out, payload []byte, recs []linkRecord) {
	t.Helper()
	out = bytes.Clone(data)
	payload = sectionPayload(out, secEngineLinks)
	d := checkpoint.NewDecoder(secEngineLinks, payload)
	for d.Remaining() > 0 {
		l := linkRecord{at: len(payload) - d.Remaining()}
		d.Bool()
		d.Byte()
		l.fly = d.Len(4)
		for i := 0; i < l.fly; i++ {
			decodeFlitChecked(d)
			l.age = len(payload) - d.Remaining()
			d.Int()
		}
		recs = append(recs, l)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	return out, payload, recs
}

// sectionPayload returns the named section's payload within container data
// (see checkpoint's format: magic, version, section count, then
// name-length-prefixed sections).
func sectionPayload(data []byte, section string) []byte {
	off := len("MDXSNAP\n") + 2 + 4
	for {
		name := string(data[off+1 : off+1+int(data[off])])
		off += 1 + len(name)
		n := int(binary.BigEndian.Uint32(data[off:]))
		off += 4
		if name == section {
			return data[off : off+n]
		}
		off += n
	}
}

// reseal rewrites a patched container's CRC footer.
func reseal(data []byte) []byte {
	body := data[:len(data)-4]
	binary.BigEndian.PutUint32(data[len(body):], crc32.ChecksumIEEE(body))
	return data
}

// lingerLinks returns data with every idle link of its engine.links section
// marked active and its reserved byte set.
func lingerLinks(t *testing.T, data []byte) []byte {
	t.Helper()
	out, payload, recs := linkRecords(t, data)
	idle := 0
	for _, l := range recs {
		if l.fly == 0 {
			payload[l.at], payload[l.at+1] = 1, 3
			idle++
		}
	}
	if idle == 0 {
		t.Fatal("the fixture has no idle link")
	}
	return reseal(out)
}
