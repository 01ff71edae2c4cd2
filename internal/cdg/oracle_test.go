package cdg

import (
	"fmt"
	"slices"
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
	"sr2201/internal/topo"
)

// registerUnicastPerPair is the point-to-point registration as it stood
// before a graph kept its unicast memo: every pair walks its whole route and
// registers it. It is the oracle registerUnicast is held to.
func (g *Graph) registerUnicastPerPair() {
	visit := func(n int32, _ *flit.Header, _ int) { g.route = append(g.route, n) }
	n := g.shape.Size()
	for si := 0; si < n; si++ {
		src := g.shape.CoordOf(si)
		for di := 0; di < n; di++ {
			g.route = g.route[:0]
			h, err := g.p.UnicastHeader(src, g.shape.CoordOf(di))
			if err == nil {
				g.h = h
				err = g.w.Unicast(&g.h, visit)
			}
			if err == nil { // unreachable pairs contribute no dependencies
				g.path(g.route)
			}
		}
	}
}

// registerBroadcastPerSource is the broadcast registration as it stood
// before a graph walked the S-XB's fan once: every source walks its whole
// tree and absorbs its own fan. It is the oracle registerBroadcast is held
// to.
func (g *Graph) registerBroadcastPerSource() {
	treeID := g.vertexOf(g.tree)
	g.shape.Enumerate(func(src geom.Coord) bool {
		if err := g.walkBroadcast(src); err != nil {
			return true
		}
		g.path(g.request)
		if len(g.request) > 0 && len(g.fan) > 0 {
			g.b.Edge(g.vertexOf(g.request[len(g.request)-1]), treeID)
		}
		for _, n := range g.fan {
			g.b.Absorb(treeID, g.vertexOf(n))
		}
		return true
	})
}

// builderState renders everything a later certificate can read of a
// builder: the names in id order with each one's composite, the contracted
// adjacency, and the certificate.
func builderState(b *topo.Builder) string {
	s := ""
	for id := 0; id < b.Len(); id++ {
		s += fmt.Sprintf("%d %s -> %d\n", id, b.Name(id), b.Contracted(id))
	}
	return s + fmt.Sprint(b.ContractedEdges()) + "\n" + b.Certificate("oracle").String()
}

// oracleCase is one policy of the corpus; a naive one fans from its source.
type oracleCase struct {
	name  string
	shape geom.Shape
	p     *routing.Policy
	naive bool
}

// oracleCorpus lists the policies the one-walk registration is checked on:
// each shape fault-free and under every single router and crossbar fault,
// with the unified and the separate D-XB, and the generations a
// reconfiguration retires, pinned to the fault-free effective lines against
// the faulted set as addRetiringEdges builds them; and the fault-free naive
// scheme.
func oracleCorpus(t *testing.T) []oracleCase {
	t.Helper()
	var corpus []oracleCase
	for _, shape := range []geom.Shape{
		geom.MustShape(3, 3), geom.MustShape(4, 3), geom.MustShape(4, 4),
		geom.MustShape(3, 3, 2), geom.MustShape(6), geom.MustShape(4, 4, 4),
	} {
		placements := []*fault.Fault{nil}
		shape.Enumerate(func(c geom.Coord) bool {
			placements = append(placements, &fault.Fault{Kind: fault.KindRouter, Coord: c})
			return true
		})
		for _, l := range shape.Lines() {
			placements = append(placements, &fault.Fault{Kind: fault.KindXB, Line: l})
		}
		naive := policy(t, routing.Config{Shape: shape, NaiveBroadcast: true})
		corpus = append(corpus, oracleCase{fmt.Sprintf("%v/naive", shape), shape, naive, true})
		separate := shape.LineAt(0, shape.LineCount(0)-1).Fixed
		for _, f := range placements {
			set := fault.NewSet(shape)
			if f != nil {
				if err := set.Add(*f); err != nil {
					t.Fatal(err)
				}
			}
			for _, dxb := range []geom.Coord{{}, separate} {
				cfg := routing.Config{Shape: shape, DXB: dxb, Faults: set}
				name := fmt.Sprintf("%v/%v/dxb%v", shape, f, dxb)
				pinned, err := routing.NewPinned(cfg, geom.Coord{}, dxb)
				if err != nil {
					t.Fatal(err)
				}
				corpus = append(corpus, oracleCase{name, shape, policy(t, cfg), false}, oracleCase{name + "/retiring", shape, pinned, false})
			}
		}
	}
	return corpus
}

func TestBroadcastRegistrationMatchesPerSourceOracle(t *testing.T) {
	// The S-XB's fan is the same whatever the source, so a graph walks it
	// once and every later source only its request leg. The builder must
	// come out exactly as when every source walked its whole tree: the same
	// vertices interned in the same order (every certificate and cycle
	// witness depends on it), the same composite members and the same
	// edges: registered alone, and on all but the largest shape after the
	// point-to-point classes.
	for _, tc := range oracleCorpus(t) {
		name, shape, p := tc.name, tc.shape, tc.p
		// Every source that reaches the S-XB reaches the same fan.
		g := newGraph(topo.NewBuilder(), p, shape, 1)
		var first []int32
		shape.Enumerate(func(src geom.Coord) bool {
			if tc.naive || g.walkBroadcast(src) != nil {
				return true
			}
			if first == nil {
				first = slices.Clone(g.fan)
			} else if !slices.Equal(g.fan, first) {
				t.Errorf("%s: the fan from %v differs from the first source's", name, src)
			}
			return true
		})

		oneWalk := newGraph(topo.NewBuilder(), p, shape, 1)
		oneWalk.registerBroadcast()
		oracle := newGraph(topo.NewBuilder(), p, shape, 1)
		oracle.registerBroadcastPerSource()
		if got, want := builderState(oneWalk.b), builderState(oracle.b); got != want {
			t.Errorf("%s: broadcast classes alone:\n%s\nthe oracle's:\n%s", name, got, want)
		}
		if got, want := oneWalk.contractedEdges(), oracle.contractedEdges(); !slices.Equal(got, want) {
			t.Errorf("%s: BroadcastEdges %v, the oracle's %v", name, got, want)
		}
		if shape.Size() > 32 {
			continue // 4x4x4: 4 096 unchanged unicast walks a case, twice
		}
		full := newGraph(topo.NewBuilder(), p, shape, 1)
		full.registerSerialized()
		oracle = newGraph(topo.NewBuilder(), p, shape, 1)
		oracle.registerUnicastPerPair()
		oracle.registerBroadcastPerSource()
		if got, want := builderState(full.b), builderState(oracle.b); got != want {
			t.Errorf("%s: serialized scheme:\n%s\nthe oracle's:\n%s", name, got, want)
		}
	}
}

// memoCase is one graph the unicast memo is checked on: a policy over the MD
// crossbar with vcs lanes per wire.
type memoCase struct {
	name  string
	shape geom.Shape
	p     *routing.Policy
	vcs   int
}

// doubleFaultCases samples pairs of faults on shape — router and crossbar,
// each pair once, every step-th pair — under the unified and the separate
// D-XB. Two faults are past what the paper's facility guarantees, so routes
// are refused and detours cut short in ways one fault never shows.
func doubleFaultCases(t *testing.T, shape geom.Shape, step int) []memoCase {
	t.Helper()
	var all []fault.Fault
	shape.Enumerate(func(c geom.Coord) bool {
		all = append(all, fault.RouterFault(c))
		return true
	})
	for _, l := range shape.Lines() {
		all = append(all, fault.XBFault(l))
	}
	separate := shape.LineAt(0, shape.LineCount(0)-1).Fixed
	var cases []memoCase
	k := 0
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if k++; k%step != 0 {
				continue
			}
			for _, dxb := range []geom.Coord{{}, separate} {
				cfg := routing.Config{Shape: shape, DXB: dxb, Faults: faults(t, shape, all[i], all[j])}
				p, err := routing.New(cfg)
				if err != nil {
					continue // the faults leave no S-XB or D-XB line to substitute
				}
				cases = append(cases, memoCase{fmt.Sprintf("%v/%v+%v/dxb%v", shape, all[i], all[j], dxb), shape, p, 1})
			}
		}
	}
	return cases
}

func TestUnicastMemoMatchesPerPairOracle(t *testing.T) {
	// The memoized registration must leave the builder exactly as walking
	// every pair whole does: the same vertices in the same order, the same
	// composites, the same edges and the same certificate.
	var cases []memoCase
	for _, tc := range oracleCorpus(t) {
		cases = append(cases, memoCase{tc.name, tc.shape, tc.p, 1})
	}
	cases = append(cases, doubleFaultCases(t, geom.MustShape(4, 4), 3)...)
	cases = append(cases, doubleFaultCases(t, geom.MustShape(3, 4, 5), 97)...)
	for _, shape := range []geom.Shape{geom.MustShape(4, 4), geom.MustShape(3, 3, 2)} {
		for _, vcs := range []int{2, 4} {
			p := policy(t, routing.Config{Shape: shape})
			cases = append(cases, memoCase{fmt.Sprintf("%v/escape-vc%d", shape, vcs), shape, p, vcs})
			f := faults(t, shape, fault.RouterFault(shape.CoordOf(shape.Size()/2)))
			p = policy(t, routing.Config{Shape: shape, Faults: f})
			cases = append(cases, memoCase{fmt.Sprintf("%v/escape-vc%d/%v", shape, vcs, f.List()[0]), shape, p, vcs})
		}
	}
	for _, tc := range cases {
		memo := newGraph(topo.NewBuilder(), tc.p, tc.shape, tc.vcs)
		memo.registerUnicast()
		oracle := newGraph(topo.NewBuilder(), tc.p, tc.shape, tc.vcs)
		oracle.registerUnicastPerPair()
		if got, want := builderState(memo.b), builderState(oracle.b); got != want {
			t.Errorf("%s: point-to-point classes:\n%s\nthe oracle's:\n%s", tc.name, got, want)
		}
		if tc.vcs > 1 {
			memo.registerBroadcast()
			oracle.registerBroadcastPerSource()
			if got, want := builderState(memo.b), builderState(oracle.b); got != want {
				t.Errorf("%s: escape registration:\n%s\nthe oracle's:\n%s", tc.name, got, want)
			}
		}
	}
	t.Logf("%d graphs", len(cases))
}
