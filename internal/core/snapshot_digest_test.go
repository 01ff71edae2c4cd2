package core_test

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/fault"
	"sr2201/internal/geom"
)

var updateDigests = flag.Bool("update", false, "rewrite the snapshot-digest streams under testdata/")

// digestRun is one pinned run: a machine, its preset faults, and the traffic
// (and mid-run faults) it sees at the top of each cycle.
type digestRun struct {
	name   string
	cfg    core.Config
	faults []fault.Fault
	drive  func(t *testing.T, m *core.Machine, cycle int64, seen *digestCoverage)
	cycles int
}

// digestCoverage records what a run exercised, so a run that stops reaching
// the paths it is meant to pin fails loudly instead of pinning less.
type digestCoverage struct {
	pivots, broadcasts, killed int
}

// wave sends one packet from every live PE to the PE shift positions on,
// ignoring refusals (the NIA's precheck under faults).
func wave(m *core.Machine, shift, size int) {
	shape := m.Shape()
	n := shape.Size()
	for i := 0; i < n; i++ {
		src, dst := shape.CoordOf(i), shape.CoordOf((i+shift)%n)
		if src != dst && m.Alive(src) {
			m.Send(src, dst, size)
		}
	}
}

func digestRuns() []digestRun {
	return []digestRun{
		{
			// Adaptive hops, escape-lane detours around a preset faulty
			// router, S-XB broadcasts fanning out, and a router that dies
			// mid-run with packets in it.
			name:   "adaptive_4x4x4",
			cfg:    core.Config{Shape: geom.MustShape(4, 4, 4), VCs: 4, Adaptive: true},
			faults: []fault.Fault{fault.RouterFault(geom.Coord{1, 2, 1})},
			cycles: 400,
			drive: func(t *testing.T, m *core.Machine, cycle int64, seen *digestCoverage) {
				switch cycle {
				case 0:
					wave(m, 21, 6)
					broadcast(t, m, geom.Coord{3, 3, 3}, 3, seen)
				case 5:
					broadcast(t, m, geom.Coord{0, 1, 2}, 2, seen)
				case 9:
					lost, err := m.FailNow(fault.RouterFault(geom.Coord{2, 2, 2}))
					if err != nil {
						t.Fatal(err)
					}
					seen.killed += len(lost)
				case 40:
					wave(m, 37, 4)
					broadcast(t, m, geom.Coord{3, 0, 1}, 4, seen)
				}
			},
		},
		{
			// Paper Fig. 8's faulty router, plus a faulty last-dimension
			// crossbar whose column only pivot packets reach: their
			// intermediate router rewrites Dst and TwoPhase.
			name: "pivot_8x8",
			cfg:  core.Config{Shape: geom.MustShape(8, 8), PivotLastDim: true},
			faults: []fault.Fault{
				fault.RouterFault(geom.Coord{2, 0}),
				fault.XBFault(geom.LineOf(geom.Coord{5, 0}, 1)),
			},
			cycles: 300,
			drive: func(t *testing.T, m *core.Machine, cycle int64, seen *digestCoverage) {
				switch cycle {
				case 0, 30:
					wave(m, 11+int(cycle), 6)
					for y := 0; y < 8; y++ {
						src, dst := geom.Coord{(y + 1) % 8, y}, geom.Coord{5, (y + 3) % 8}
						if m.Reachable(src, dst) == nil || !m.Alive(src) {
							continue
						}
						if _, err := m.Send(src, dst, 6); err == nil {
							seen.pivots++
						}
					}
				case 10:
					broadcast(t, m, geom.Coord{7, 7}, 5, seen)
				}
			},
		},
		{
			// Paper Fig. 5's unserialized broadcast, one at a time, with
			// unicast traffic around it: every router fans every copy out.
			name:   "naive_4x4",
			cfg:    core.Config{Shape: geom.MustShape(4, 4), NaiveBroadcast: true},
			cycles: 260,
			drive: func(t *testing.T, m *core.Machine, cycle int64, seen *digestCoverage) {
				switch cycle {
				case 0:
					broadcast(t, m, geom.Coord{0, 0}, 4, seen)
				case 5:
					wave(m, 5, 3)
				case 120:
					broadcast(t, m, geom.Coord{3, 2}, 6, seen)
				}
			},
		},
	}
}

func broadcast(t *testing.T, m *core.Machine, src geom.Coord, size int, seen *digestCoverage) {
	t.Helper()
	if _, _, err := m.Broadcast(src, size); err != nil {
		t.Fatalf("broadcast from %v: %v", src, err)
	}
	seen.broadcasts++
}

// TestSnapshotDigestStreams pins, cycle by cycle, an FNV-1a digest of the
// bytes of Machine.Snapshot on three runs. StateHash reads only a header's
// PacketID; a snapshot encodes every resident header by value — in source
// queues, buffers, links, cut-through and receive states, and the output
// of each pending header rewrite — plus the delivery log. So a live header that
// was overwritten shows here in the cycle it happens, even if the packet
// still reaches its destination. The streams were recorded before the
// engine took ownership of headers; -update rewrites them, which is right
// only for an intended change of simulated state.
func TestSnapshotDigestStreams(t *testing.T) {
	for _, run := range digestRuns() {
		t.Run(run.name, func(t *testing.T) {
			m, err := core.NewMachine(run.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range run.faults {
				if err := m.AddFault(f); err != nil {
					t.Fatal(err)
				}
			}
			var seen digestCoverage
			got := make([]string, 0, run.cycles)
			for c := 0; c < run.cycles; c++ {
				run.drive(t, m, m.Cycle(), &seen)
				m.Step()
				h := fnv.New64a()
				h.Write(m.Snapshot())
				got = append(got, fmt.Sprintf("%016x", h.Sum64()))
			}
			if !m.Engine().Quiescent() {
				t.Fatalf("did not drain in %d cycles", run.cycles)
			}
			adaptive, bcasts := 0, 0
			for _, d := range m.Deliveries() {
				if d.Adaptive {
					adaptive++
				}
				if d.Broadcast {
					bcasts++
				}
			}
			if bcasts == 0 || run.cfg.Adaptive && (adaptive == 0 || seen.killed == 0) || run.cfg.PivotLastDim && seen.pivots == 0 {
				t.Fatalf("the run did not exercise its paths: %d broadcast copies, %d adaptive deliveries, %d killed, %d pivot sends",
					bcasts, adaptive, seen.killed, seen.pivots)
			}

			path := filepath.Join("testdata", "snapshot_digest_"+run.name+".golden")
			if *updateDigests {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			sc := bufio.NewScanner(f)
			var want []string
			for sc.Scan() {
				want = append(want, sc.Text())
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if len(want) != len(got) {
				t.Fatalf("%s holds %d cycles, the run made %d", path, len(want), len(got))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("snapshot bytes diverge after cycle %d: digest %s, pinned %s", i+1, got[i], want[i])
				}
			}
		})
	}
}
