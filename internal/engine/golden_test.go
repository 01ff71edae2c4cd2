package engine

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// The production callers all run LinkDelay 1, so the checkpoint goldens
// elsewhere in the repository only ever hold link flits of age 0. This
// fixture pins the encoding of older flits: a loaded chain with three-cycle
// links, stopped while some link carries flits of age 0, 1 and 2 at once.
// Regenerate (only for a deliberate format change) with
//
//	go test ./internal/engine -run TestGoldenDelay3 -update
const (
	delay3Steps  = 14
	delay3Stream = 400
)

func delay3Engine() *Engine {
	e, _ := chainScenario(Config{BufferDepth: 4, LinkDelay: 3, Acquire: AcquireAtomic}, 8)
	for i := 0; i < delay3Steps; i++ {
		e.Step()
	}
	return e
}

func TestGoldenDelay3(t *testing.T) {
	e := delay3Engine()
	full := false
	for _, p := range e.links {
		seen := [3]bool{}
		for _, a := range e.flightAges(p) {
			seen[a] = true
		}
		full = full || seen == [3]bool{true, true, true}
	}
	if !full {
		t.Fatal("fixture scenario has no link carrying flits of age 0, 1 and 2")
	}

	snap := e.Snapshot()
	hash := e.StateHash()
	// Fold the rest of the run into one digest, so the fixture also pins how
	// the kernel ages and lands those flits, cycle by cycle.
	stream := fnv64(fnvOffset64)
	for i := 0; i < delay3Stream; i++ {
		e.Step()
		stream.u64(e.StateHash())
	}
	if !e.Quiescent() {
		t.Fatalf("fixture scenario did not drain in %d cycles", delay3Stream)
	}
	text := []byte(fmt.Sprintf("state_hash %016x\nstream_digest %016x\n", hash, uint64(stream)))

	snapPath := filepath.Join("testdata", "delay3.snap")
	textPath := filepath.Join("testdata", "delay3.hash")
	if *update {
		if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(textPath, text, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantSnap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	wantText, err := os.ReadFile(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, wantSnap) {
		t.Errorf("snapshot differs from %s (%d vs %d bytes)", snapPath, len(snap), len(wantSnap))
	}
	if !bytes.Equal(text, wantText) {
		t.Errorf("hashes differ from %s:\ngot  %swant %s", textPath, text, wantText)
	}

	// The recorded bytes restore into a fresh build and replay the same run,
	// with the same counters. So do the bytes recorded before the kernel
	// evicted on the first idle visit (delay3_linger.snap, whose reserved
	// bytes hold eviction counts): its lingering members are dropped on their
	// first visit, so only its counters differ.
	for _, fx := range []struct {
		path     string
		counters bool
	}{{snapPath, true}, {filepath.Join("testdata", "delay3_linger.snap"), false}} {
		data, err := os.ReadFile(fx.path)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := chainScenario(Config{BufferDepth: 4, LinkDelay: 3, Acquire: AcquireAtomic}, 8)
		if err := r.Restore(data); err != nil {
			t.Fatalf("restore of %s: %v", fx.path, err)
		}
		if got := r.StateHash(); got != hash {
			t.Fatalf("%s: restored hash %016x, want %016x", fx.path, got, hash)
		}
		replay := fnv64(fnvOffset64)
		for i := 0; i < delay3Stream; i++ {
			r.Step()
			replay.u64(r.StateHash())
		}
		if replay != stream {
			t.Errorf("%s: restored run diverged: stream digest %016x, want %016x", fx.path, uint64(replay), uint64(stream))
		}
		if fx.counters && r.Counters() != e.Counters() {
			t.Errorf("%s: restored counters %+v, want %+v", fx.path, r.Counters(), e.Counters())
		}
	}
}
