// Package topo is the topology-agnostic routing framework: a channel
// dependence prover (the Dally–Seitz criterion the paper's Section 5
// argument rests on), a Scheme interface any topology/routing pair
// implements to register its dependence edges, a registry of certified
// schemes, the one network builder (Net) every topology runs on — routers
// switched through the paper's shared per-line crossbars, or cabled point to
// point (HyperX, full mesh, mesh, torus) — and the one static route walker
// (Walker), whose channel numbering every certificate is built on.
//
// The prover is deliberately the same machine internal/cdg always ran: a
// channel-vertex graph built in insertion order, optional composite
// vertices that contract a channel set into one resource (the serialized
// broadcast tree), and a deterministic DFS cycle search, FindCycle — the one
// internal/deadlock also runs over a wedged engine's wait-for graph, whose
// steps Walker.ChannelOf lays back on these channels. Every scheme registers
// its channels and edges and receives the acyclic/cyclic verdict, with a
// concrete cycle witness on refutation.
package topo

import (
	"errors"
	"fmt"
	"slices"
)

// ErrUnreachable reports that a scheme refuses a source/destination pair
// under the configured fault set. Refused pairs contribute no dependence
// edges: the scheme never allocates channels for them.
var ErrUnreachable = errors.New("topo: destination unreachable under current faults")

// Scheme is a topology plus routing function that can state its channel
// dependences. RegisterDependences must enumerate, for the scheme's
// configured shape and fault set, every channel its routing function can
// allocate and every "holds u, waits for v" edge between consecutive
// channels on a path. The Builder's verdict over that graph is the
// scheme's deadlock-freedom certificate.
type Scheme interface {
	// Name identifies the scheme instance, e.g. "hyperx-4x4".
	Name() string
	// RegisterDependences adds the scheme's channels and dependence edges.
	RegisterDependences(b *Builder) error
}

// Certificate is the prover's verdict for one scheme.
type Certificate struct {
	// Scheme is the certified scheme's name.
	Scheme string
	// Channels and Edges count the contracted dependence graph. A
	// composite vertex counts as one channel.
	Channels, Edges int
	// Acyclic reports whether the graph has no cycle — the sufficient
	// condition for deadlock freedom.
	Acyclic bool
	// Cycle names the channels of one dependency cycle when !Acyclic.
	Cycle []string
}

// String renders the certificate in the fixed golden/testdata format.
func (c Certificate) String() string {
	s := fmt.Sprintf("scheme: %s\nchannels: %d\nedges: %d\nacyclic: %v\n", c.Scheme, c.Channels, c.Edges, c.Acyclic)
	if len(c.Cycle) > 0 {
		s += "cycle:\n"
		for _, name := range c.Cycle {
			s += "  " + name + "\n"
		}
	}
	return s
}

// Builder accumulates a channel dependence graph. Channel vertices are
// interned by name in insertion order; edges are deduplicated; composite
// vertices contract their member channels into one resource at
// certification time. The builder is not safe for concurrent use.
//
// Vertices are dense ids, so the graph is slices indexed by id: adj[u] is
// u's successor set as a sorted slice (membership by binary search, and the
// cycle search wants successors in id order anyway), memberOf[v] the
// composite v was absorbed into. A name is hashed once, when Channel first
// sees it; callers that number their channels (a Walker's) go through Intern
// and never come back through the map.
type Builder struct {
	ids      map[string]int
	names    []string
	adj      [][]int32
	memberOf []int32 // composite id, or -1
	members  int
	rank     []int32 // the last certificate's witness (Rank)
}

// NewBuilder returns an empty dependence-graph builder.
func NewBuilder() *Builder {
	return &Builder{ids: map[string]int{}}
}

// Channel interns a channel vertex by name and returns its id. Repeated
// calls with the same name return the same id.
func (b *Builder) Channel(name string) int {
	if v, ok := b.ids[name]; ok {
		return v
	}
	v := len(b.names)
	b.ids[name] = v
	b.names = append(b.names, name)
	b.adj = append(b.adj, nil)
	b.memberOf = append(b.memberOf, -1)
	return v
}

// Intern returns the vertex of channel n of a numbering, naming it and
// interning the name only the first time: vertex[n] caches the id + 1, so
// vertices — and every cycle witness — come in first-seen order while every
// later crossing is an array read.
func (b *Builder) Intern(vertex []int32, n int32, name func(int32) string) int {
	if v := vertex[n]; v > 0 {
		return int(v) - 1
	}
	v := b.Channel(name(n))
	vertex[n] = int32(v) + 1
	return v
}

// Len reports how many vertices have been interned; ids run from 0 to Len-1.
func (b *Builder) Len() int { return len(b.names) }

// Name returns the name vertex id was interned under.
func (b *Builder) Name(id int) string { return b.names[id] }

// insertSorted adds v to the sorted set s, reporting whether it was new.
func insertSorted(s []int32, v int32) ([]int32, bool) {
	i, found := slices.BinarySearch(s, v)
	if found {
		return s, false
	}
	return slices.Insert(s, i, v), true
}

// Edge records a dependence from channel u to channel v. Self-loops are
// dropped: a channel never waits on itself in cut-through switching.
func (b *Builder) Edge(u, v int) {
	if u == v {
		return
	}
	b.adj[u], _ = insertSorted(b.adj[u], int32(v))
}

// Composite interns a composite vertex: a resource standing for a whole
// channel set (the paper's serialized broadcast tree). Member channels
// absorbed into it are contracted onto this vertex at certification.
func (b *Builder) Composite(name string) int {
	return b.Channel(name)
}

// Absorb marks channel id a member of composite comp. At certification
// every edge touching the member is redirected onto the composite and the
// member no longer counts as a channel of its own.
func (b *Builder) Absorb(comp, id int) {
	if comp == id {
		return
	}
	if b.memberOf[id] < 0 {
		b.members++
	}
	b.memberOf[id] = int32(comp)
}

// Contracted returns the vertex id stands for after contraction: the
// composite that absorbed it, or id itself.
func (b *Builder) Contracted(id int) int {
	if c := b.memberOf[id]; c >= 0 {
		return int(c)
	}
	return id
}

// contract returns the graph with composite members redirected onto their
// composite, self-loops dropped and duplicates collapsed, and its edge
// count.
func (b *Builder) contract() ([][]int32, int) {
	contracted := make([][]int32, len(b.adj))
	edges := 0
	for u, vs := range b.adj {
		cu := int32(b.Contracted(u))
		for _, v := range vs {
			cv := int32(b.Contracted(int(v)))
			if cu == cv {
				continue
			}
			var added bool
			if contracted[cu], added = insertSorted(contracted[cu], cv); added {
				edges++
			}
		}
	}
	return contracted, edges
}

// Certificate contracts composites, counts the resulting graph, and runs
// the deterministic cycle search. The builder stays usable: more edges may
// be added and a further certificate taken over the larger graph (the
// reconfiguration layer certifies a candidate, then adds the retiring
// edges and certifies the transition).
func (b *Builder) Certificate(scheme string) Certificate {
	contracted, edges := b.contract()
	cert := Certificate{Scheme: scheme, Channels: len(b.names) - b.members, Edges: edges}
	var cycle []int32
	cycle, b.rank = FindCycle(contracted)
	for _, v := range cycle {
		cert.Cycle = append(cert.Cycle, b.names[v])
	}
	cert.Acyclic = cycle == nil
	return cert
}

// Rank is the witness of the last Certificate, nil unless it was acyclic: a
// numbering of the vertices (by id, as ContractedEdges names them) that every
// contracted edge strictly climbs — the Dally–Seitz channel order, which a
// checker can verify without trusting the cycle search.
func (b *Builder) Rank() []int32 { return b.rank }

// ContractedEdges returns the post-contraction dependence edges as vertex id
// pairs ordered by (from, to): the same graph Certificate counts and
// searches, with composite members redirected onto their composite and
// self-loops dropped. The reconfiguration layer uses this to carry the
// edges of a retiring routing generation into the builder that certifies
// the old ∪ new transition graph.
func (b *Builder) ContractedEdges() [][2]int {
	contracted, edges := b.contract()
	out := make([][2]int, 0, edges)
	for u, vs := range contracted {
		for _, v := range vs {
			out = append(out, [2]int{u, int(v)})
		}
	}
	return out
}

// FindCycle is the one cycle search, for certificates and for the deadlock
// analyzer's wait-for graph alike. It runs a deterministic DFS over adj —
// roots in id order, each vertex's successors in slice order — and returns
// one cycle's vertices in edge order, ending at the vertex where the search
// closed it, or, for an acyclic graph, a nil cycle and the reverse of the DFS
// finish order as a rank that every edge strictly climbs.
func FindCycle(adj [][]int32) (cycle, rank []int32) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(adj))
	parent := make([]int32, len(adj))
	rank = make([]int32, len(adj))
	next, cycleAt := int32(len(adj)), int32(-1)

	var dfs func(u int32) bool
	dfs = func(u int32) bool {
		color[u] = gray
		for _, v := range adj[u] {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case gray:
				parent[v] = u
				cycleAt = v
				return true
			}
		}
		color[u] = black
		next--
		rank[u] = next // every successor finished first, so ranks above u
		return false
	}
	for u := range adj {
		if color[u] == white && dfs(int32(u)) {
			break
		}
	}
	if cycleAt < 0 {
		return nil, rank
	}
	for cur := cycleAt; ; {
		cycle = append(cycle, cur)
		if cur = parent[cur]; cur == cycleAt {
			break
		}
	}
	slices.Reverse(cycle)
	return cycle, nil
}

// Certify runs a scheme through a fresh builder and returns its
// certificate.
func Certify(s Scheme) (Certificate, error) {
	b := NewBuilder()
	if err := s.RegisterDependences(b); err != nil {
		return Certificate{}, err
	}
	return b.Certificate(s.Name()), nil
}
