package topo_test

import (
	"reflect"
	"strings"
	"testing"

	"sr2201/internal/topo"
)

// path interns the named channels and records the consecutive dependences of
// one route: each channel held while the next is awaited.
func path(b *topo.Builder, names ...string) {
	for i := 1; i < len(names); i++ {
		b.Edge(b.Channel(names[i-1]), b.Channel(names[i]))
	}
}

// TestBuilderInterning: channel vertices are interned by name — repeated
// names return the same id, and edge duplicates collapse to one edge.
func TestBuilderInterning(t *testing.T) {
	b := topo.NewBuilder()
	a := b.Channel("a")
	if again := b.Channel("a"); again != a {
		t.Errorf("re-interning %q: id %d, want %d", "a", again, a)
	}
	c := b.Channel("c")
	if c == a {
		t.Errorf("distinct names share id %d", c)
	}
	b.Edge(a, c)
	b.Edge(a, c)
	path(b, "a", "c")
	cert := b.Certificate("intern")
	if cert.Channels != 2 || cert.Edges != 1 {
		t.Errorf("channels=%d edges=%d, want 2 and 1 (duplicates collapsed)", cert.Channels, cert.Edges)
	}
	if !cert.Acyclic {
		t.Errorf("a->c reported cyclic: %v", cert.Cycle)
	}
}

// TestBuilderSelfLoopDropped: a channel never waits on itself in
// cut-through switching, so self-edges are discarded, not certified cyclic.
func TestBuilderSelfLoopDropped(t *testing.T) {
	b := topo.NewBuilder()
	a := b.Channel("a")
	b.Edge(a, a)
	path(b, "a", "a")
	cert := b.Certificate("selfloop")
	if cert.Edges != 0 || !cert.Acyclic {
		t.Errorf("self-loop survived: edges=%d acyclic=%v", cert.Edges, cert.Acyclic)
	}
}

// TestBuilderCompositeContraction: members absorbed into a composite
// vertex stop counting as channels, their edges redirect onto the
// composite, and edges internal to the composite vanish — the paper's
// serialized broadcast tree as one resource.
func TestBuilderCompositeContraction(t *testing.T) {
	b := topo.NewBuilder()
	comp := b.Composite("tree")
	m1, m2 := b.Channel("m1"), b.Channel("m2")
	b.Absorb(comp, m1)
	b.Absorb(comp, m2)
	x := b.Channel("x")
	b.Edge(x, m1)  // redirects to x -> tree
	b.Edge(m1, m2) // internal: vanishes
	b.Edge(m2, x)  // redirects to tree -> x
	cert := b.Certificate("composite")
	if cert.Channels != 2 {
		t.Errorf("channels=%d, want 2 (tree + x)", cert.Channels)
	}
	if cert.Edges != 2 {
		t.Errorf("edges=%d, want 2 (x->tree, tree->x)", cert.Edges)
	}
	// x -> tree -> x is a real 2-cycle after contraction: holding the tree
	// while waiting for x, and x while waiting for the tree.
	if cert.Acyclic {
		t.Error("contraction lost the x<->tree cycle")
	}
	// ContractedEdges is the same graph as id pairs, ordered by (from, to).
	if got, want := b.ContractedEdges(), [][2]int{{comp, x}, {x, comp}}; !reflect.DeepEqual(got, want) {
		t.Errorf("ContractedEdges() = %v, want %v", got, want)
	}
	if b.Len() != 4 || b.Name(x) != "x" {
		t.Errorf("Len() = %d, Name(x) = %q; want 4 vertices and \"x\"", b.Len(), b.Name(x))
	}
}

// TestCertificateCycleWitness: the refutation names the cycle's channels
// concretely and deterministically (same witness on every run).
func TestCertificateCycleWitness(t *testing.T) {
	build := func() topo.Certificate {
		b := topo.NewBuilder()
		path(b, "a", "b", "c", "a")
		path(b, "a", "d") // an acyclic appendix must not perturb the witness
		return b.Certificate("ring")
	}
	first := build()
	if first.Acyclic {
		t.Fatal("3-ring certified acyclic")
	}
	// The witness is a rotation of the ring starting where the DFS re-entered
	// its gray path — deterministic, pinned here.
	want := []string{"b", "c", "a"}
	if !reflect.DeepEqual(first.Cycle, want) {
		t.Errorf("witness %v, want %v", first.Cycle, want)
	}
	for i := 0; i < 5; i++ {
		if again := build(); !reflect.DeepEqual(again.Cycle, first.Cycle) {
			t.Fatalf("witness not deterministic: %v then %v", first.Cycle, again.Cycle)
		}
	}
}

// TestCertificateString pins the golden/testdata rendering format.
func TestCertificateString(t *testing.T) {
	b := topo.NewBuilder()
	path(b, "a", "b", "a")
	got := b.Certificate("fmt").String()
	want := "scheme: fmt\nchannels: 2\nedges: 2\nacyclic: false\ncycle:\n  b\n  a\n"
	if got != want {
		t.Errorf("String() =\n%q\nwant\n%q", got, want)
	}
	b2 := topo.NewBuilder()
	path(b2, "a", "b")
	if got := b2.Certificate("fmt").String(); !strings.HasSuffix(got, "acyclic: true\n") {
		t.Errorf("acyclic String() = %q, want no cycle block", got)
	}
}

// TestFindCycle pins the one cycle search's rules: roots in id order,
// successors in slice order, the witness ending at the vertex where the
// search closed it, and on an acyclic graph a rank every edge climbs.
func TestFindCycle(t *testing.T) {
	for _, tc := range []struct {
		name        string
		adj         [][]int32
		cycle, rank []int32
	}{
		{"acyclic chain", [][]int32{{1, 2}, {2}, nil}, nil, []int32{0, 1, 2}},
		{"acyclic later root", [][]int32{nil, {0}}, nil, []int32{1, 0}},
		{"roots in id order", [][]int32{{1}, {0}, {3}, {2}}, []int32{1, 0}, nil},
		{"successors in slice order", [][]int32{{2, 1}, {0}, {0}}, []int32{2, 0}, nil},
		{"successors reordered", [][]int32{{1, 2}, {0}, {0}}, []int32{1, 0}, nil},
		{"ends where closed", [][]int32{{1}, {2}, {3}, {1}}, []int32{2, 3, 1}, nil},
	} {
		cycle, rank := topo.FindCycle(tc.adj)
		if !reflect.DeepEqual(cycle, tc.cycle) || !reflect.DeepEqual(rank, tc.rank) {
			t.Errorf("%s: FindCycle = %v, %v; want %v, %v", tc.name, cycle, rank, tc.cycle, tc.rank)
		}
		for u, vs := range tc.adj {
			for _, v := range vs {
				if rank != nil && rank[u] >= rank[v] {
					t.Errorf("%s: edge %d->%d does not climb rank %v", tc.name, u, v, rank)
				}
			}
		}
	}
}
