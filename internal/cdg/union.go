package cdg

import (
	"cmp"
	"slices"

	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
	"sr2201/internal/topo"
)

// This file supports online reconfiguration (internal/reconfig): before a
// new routing table is swapped into a live machine, the transition window —
// during which in-flight packets still route under retiring tables while new
// packets route under the committed one — is proved safe by certifying the
// union dependence graph acyclic: the new table's full CDG plus every edge a
// retiring generation's packets can still hold or wait on. UnicastEdges and
// BroadcastEdges capture a generation's post-contraction edges per traffic
// class, so only the classes actually in flight contribute, and
// Graph.AddLiveEdges merges them into the candidate's own graph, whose next
// Certificate is the transition's — through the same topo prover as every
// static certificate.

// Edge is one contracted dependence between two channels, by their
// topo.Walker numbers in the shape; the contracted broadcast tree has the
// number one past the last channel.
type Edge [2]int32

// UnicastEdges captures the contracted dependence edges of a policy's
// point-to-point classes (RC normal and detour, including detour
// continuations of normal routes), ordered by the names of their channels —
// the order in which a transition graph takes them in, and so part of what
// its cycle witness looks like. It is the unicast half of the construction
// RegisterDependences certifies. For a retiring generation the policy must
// be the generation's pinned reconstruction against the live fault set
// (routing.NewPinned): in-flight packets of that generation consult live
// fault bits, so e.g. a normal-class packet meeting the new fault detours
// toward the generation's own effective D-XB, and those routes must appear
// here.
func UnicastEdges(p *routing.Policy, shape geom.Shape) []Edge {
	g := newGraph(topo.NewBuilder(), p, shape, 1)
	g.registerUnicast()
	return g.contractedEdges()
}

// BroadcastEdges is UnicastEdges for the broadcast classes (RC
// broadcast-request and broadcast): request-leg chains plus the edge into
// the contracted "BROADCAST-TREE" composite.
func BroadcastEdges(p *routing.Policy, shape geom.Shape) []Edge {
	g := newGraph(topo.NewBuilder(), p, shape, 1)
	g.registerBroadcast()
	return g.contractedEdges()
}

// contractedEdges returns the builder's post-contraction edges as channel
// numbers, ordered by channel name.
func (g *Graph) contractedEdges() []Edge {
	// Every vertex of the builder came in through vertexOf (the graph owns
	// its builder here): invert vertex[], then rank the vertices by name.
	numberOf := make([]int32, g.b.Len())
	for n, v := range g.vertex {
		if v > 0 {
			numberOf[v-1] = int32(n)
		}
	}
	byName := make([]int32, len(numberOf))
	for v := range byName {
		byName[v] = int32(v)
	}
	slices.SortFunc(byName, func(a, b int32) int { return cmp.Compare(g.b.Name(int(a)), g.b.Name(int(b))) })
	rank := make([]int32, len(byName))
	for r, v := range byName {
		rank[v] = int32(r)
	}
	ids := g.b.ContractedEdges()
	slices.SortFunc(ids, func(a, b [2]int) int {
		if c := cmp.Compare(rank[a[0]], rank[b[0]]); c != 0 {
			return c
		}
		return cmp.Compare(rank[a[1]], rank[b[1]])
	})
	out := make([]Edge, len(ids))
	for i, e := range ids {
		out[i] = Edge{numberOf[e[0]], numberOf[e[1]]}
	}
	return out
}

// AddLiveEdges adds one class of a retiring generation's edges to the graph,
// leaving out edges with an endpoint on a faulted switch: its channels were
// purged with its packets (engine.KillSwitch), so retiring-generation
// packets can no longer hold or wait on them. The contracted tree counts as
// live — keeping an edge can only make the union check stricter. Endpoints
// that are broadcast-tree members of this graph are contracted onto its
// composite, so a retiring route waiting into the new tree meets the new
// tree's own dependences — exactly the interaction the transition must
// prove harmless.
func (g *Graph) AddLiveEdges(edges []Edge, faults *fault.Set) {
	dead := make([]bool, g.tree+1)
	for _, f := range faults.List() {
		dim, index := -1, 0
		switch f.Kind {
		case fault.KindRouter:
			index = g.shape.Index(f.Coord)
		case fault.KindXB:
			dim, index = f.Line.Dim, g.shape.LineIndex(f.Line)
		default:
			continue
		}
		// A switch's channels run up to its successor's first.
		for n := g.w.Channel(dim, index, 0); n < g.w.Channel(dim, index+1, 0); n++ {
			dead[n] = true
		}
	}
	for _, e := range edges {
		if !dead[e[0]] && !dead[e[1]] {
			g.b.Edge(g.vertexOf(e[0]), g.vertexOf(e[1]))
		}
	}
}
