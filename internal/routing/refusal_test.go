package routing

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

var updateRefusals = flag.Bool("update", false, "rewrite testdata/refusals.golden")

// TestRefusalTexts pins the text of every refusal the policy can give, and
// whether it wraps ErrUnreachable, against testdata/refusals.golden: on
// 4x4 and 3x3x3, fault-free, under every single router and crossbar fault,
// seeded sets of two to four faults and sets past any substitution, with
// unified and separate D-XB and naive broadcast, every switch is asked every
// input port, RC class (one past the last included) and destination (see
// countRefusals). Each
// line counts one distinct refusal over one shape and variant. Refusals are values rendered on demand, so this
// is what holds the renderer to the texts the rules once formatted.
func TestRefusalTexts(t *testing.T) {
	var out strings.Builder
	for _, shape := range []geom.Shape{geom.MustShape(4, 4), geom.MustShape(3, 3, 3)} {
		var singles []fault.Fault
		shape.Enumerate(func(c geom.Coord) bool {
			singles = append(singles, fault.RouterFault(c))
			return true
		})
		for dim := range shape {
			for _, l := range shape.LinesAlong(dim) {
				singles = append(singles, fault.XBFault(l))
			}
		}
		sets := [][]fault.Fault{nil}
		for _, f := range singles {
			sets = append(sets, []fault.Fault{f})
		}
		rng := rand.New(rand.NewSource(41))
		for i := 0; i < 40; i++ {
			fs := make([]fault.Fault, 2+i%3)
			for j, k := range rng.Perm(len(singles))[:len(fs)] {
				fs[j] = singles[k]
			}
			sets = append(sets, fs)
		}
		// Past any substitution: every dim-0 crossbar, or every router of a
		// line, faulty.
		var bars []fault.Fault
		for _, l := range shape.LinesAlong(0) {
			bars = append(bars, fault.XBFault(l))
		}
		sets = append(sets, bars)
		for dim := range shape {
			var line []fault.Fault
			for v := 0; v < shape[dim]; v++ {
				line = append(line, fault.RouterFault(shape.LinesAlong(dim)[0].Point(v)))
			}
			sets = append(sets, line)
		}
		var dxb geom.Coord
		for k := 1; k < shape.Dims(); k++ {
			dxb[k] = 1
		}
		variants := []struct {
			name string
			cfg  Config
		}{
			{"unified", Config{}},
			{"separate", Config{DXB: dxb}},
			{"naive", Config{NaiveBroadcast: true}},
		}
		for _, v := range variants {
			count := map[string]int{}
			for _, fs := range sets {
				set := fault.NewSet(shape)
				for _, f := range fs {
					if err := set.Add(f); err != nil {
						t.Fatal(err)
					}
				}
				cfg := v.cfg
				cfg.Shape, cfg.Faults = shape, set
				p, err := New(cfg)
				if err != nil {
					count["New: "+err.Error()]++
					continue
				}
				countRefusals(p, count)
			}
			var lines []string
			for k, n := range count {
				lines = append(lines, fmt.Sprintf("%v %s\t%s\t%d\n", shape, v.name, k, n))
			}
			slices.Sort(lines)
			out.WriteString(strings.Join(lines, ""))
		}
	}
	const golden = "testdata/refusals.golden"
	if *updateRefusals {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("refusals differ from %s at line %d:\n got %s\nwant %s", golden, i+1, g[i], w[i])
			}
		}
		t.Fatalf("refusals differ from %s: %d lines, want %d", golden, len(g), len(w))
	}
}

// countRefusals asks every switch of p every input port, RC class and
// destination (one destination for the classes no rule routes by), and
// counts each distinct refusal.
func countRefusals(p *Policy, count map[string]int) {
	note := func(err error) {
		if err != nil {
			count[fmt.Sprintf("%t\t%v", errors.Is(err, ErrUnreachable), err)]++
		}
	}
	ask := func(route func(in int, h *flit.Header) error, ins int) {
		for in := 0; in < ins; in++ {
			for rc := flit.RCNormal; rc <= flit.RCDetour+1; rc++ {
				if rc != flit.RCNormal && rc != flit.RCDetour {
					// No rule reads a request's, a fan's or an unknown
					// class's destination.
					note(route(in, &flit.Header{RC: rc}))
					continue
				}
				p.shape.Enumerate(func(dst geom.Coord) bool {
					note(route(in, &flit.Header{RC: rc, Dst: dst}))
					return true
				})
			}
		}
	}
	p.shape.Enumerate(func(c geom.Coord) bool {
		ask(func(in int, h *flit.Header) error {
			_, err := p.RouteRouter(nil, c, in, h)
			return err
		}, p.dims+1)
		return true
	})
	for dim := range p.shape {
		for _, l := range p.shape.LinesAlong(dim) {
			ask(func(in int, h *flit.Header) error {
				_, err := p.RouteXB(nil, l, in, h)
				return err
			}, p.shape[dim])
		}
	}
}
