package cdg

import (
	"fmt"
	"slices"
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
	"sr2201/internal/topo"
)

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
		oracle.registerUnicast()
		oracle.registerBroadcastPerSource()
		if got, want := builderState(full.b), builderState(oracle.b); got != want {
			t.Errorf("%s: serialized scheme:\n%s\nthe oracle's:\n%s", name, got, want)
		}
	}
}
