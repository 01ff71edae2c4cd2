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
// interned in insertion order; edges are deduplicated; composite vertices
// contract their member channels into one resource at certification time.
// The builder is not safe for concurrent use.
//
// Vertices are dense ids. A vertex comes from Channel, by name, or from a
// Numbering, by channel number (a Walker's): the first numbering of an empty
// builder interns a channel by number alone and names it only when a name is
// read (Name, a cycle witness), so a proof that certifies formats no name at
// all. A second source of vertices — Channel, Composite or another numbering
// — could name a channel the first one already holds, so it names every
// vertex first and interns by name from then on: two numberings of one
// channel are one vertex.
//
// Edges go to one flat list of (from, to) pairs, deduplicated only when a
// long list must grow; the contraction buckets them by source into one
// backing array, which is the adjacency FindCycle searches. A certificate is
// kept until a vertex, edge or absorption is added.
type Builder struct {
	ids      map[string]int // vertices by name, once every vertex is named
	names    []string       // by id; "" while a lazy vertex's name is unread
	number   []int32        // by id: the channel number in lazy, or -1
	lazy     *Numbering     // the numbering that interns unnamed, if any
	memberOf []int32        // composite id, or -1
	members  int
	edges    []uint64 // from<<32 | to
	sorted   int      // edges[:sorted] is ascending and duplicate-free
	cert     Certificate
	rank     []int32 // the certificate's witness (Rank)
	current  bool    // cert and rank are the graph's as it stands
}

// NewBuilder returns an empty dependence-graph builder.
func NewBuilder() *Builder {
	return &Builder{}
}

// add appends a vertex, named or (name "") numbered n in the lazy numbering.
func (b *Builder) add(name string, n int32) int {
	v := len(b.names)
	b.names = append(b.names, name)
	b.number = append(b.number, n)
	b.memberOf = append(b.memberOf, -1)
	b.current = false
	return v
}

// nameAll names every vertex and indexes the names, so that whatever interns
// next can find a channel another source interned.
func (b *Builder) nameAll() {
	if b.ids != nil {
		return
	}
	b.ids = make(map[string]int, len(b.names))
	for v := range b.names {
		b.ids[b.Name(v)] = v
	}
	b.lazy = nil
}

// Channel interns a channel vertex by name and returns its id. Repeated
// calls with the same name return the same id, and so does a channel a
// Numbering interned under that name.
func (b *Builder) Channel(name string) int {
	b.nameAll()
	if v, ok := b.ids[name]; ok {
		return v
	}
	v := b.add(name, -1)
	b.ids[name] = v
	return v
}

// Numbering is one channel numbering interned into a builder: channel n's
// vertex is made the first time n is seen, so vertices — and every cycle
// witness — come in first-seen order while every later crossing is an array
// read. name renders a channel number, for whatever reads the vertex's name.
type Numbering struct {
	b      *Builder
	vertex []int32 // by channel number: id + 1, or 0 before first sight
	name   func(int32) string
}

// Numbering starts interning channels numbered below channels, named by
// name. Only the first numbering of an empty builder interns unnamed.
func (b *Builder) Numbering(channels int32, name func(int32) string) *Numbering {
	m := &Numbering{b: b, vertex: make([]int32, channels), name: name}
	if len(b.names) > 0 || b.lazy != nil {
		b.nameAll()
	}
	if b.ids == nil {
		b.lazy = m
	}
	b.names = slices.Grow(b.names, int(channels))
	b.number = slices.Grow(b.number, int(channels))
	b.memberOf = slices.Grow(b.memberOf, int(channels))
	return m
}

// Intern returns the vertex of channel n.
func (m *Numbering) Intern(n int32) int {
	if v := m.vertex[n]; v > 0 {
		return int(v) - 1
	}
	var v int
	if m.b.lazy == m {
		v = m.b.add("", n)
	} else {
		v = m.b.Channel(m.name(n))
	}
	m.vertex[n] = int32(v) + 1
	return v
}

// Lookup returns the vertex of channel n, if n has been interned.
func (m *Numbering) Lookup(n int32) (int, bool) {
	v := m.vertex[n]
	return int(v) - 1, v > 0
}

// Len reports how many vertices have been interned; ids run from 0 to Len-1.
func (b *Builder) Len() int { return len(b.names) }

// Name returns the name vertex id was interned under, naming it now if its
// numbering has not.
func (b *Builder) Name(id int) string {
	if b.names[id] == "" && b.number[id] >= 0 {
		b.names[id] = b.lazy.name(b.number[id])
	}
	return b.names[id]
}

// Edge records a dependence from channel u to channel v. Self-loops are
// dropped: a channel never waits on itself in cut-through switching.
func (b *Builder) Edge(u, v int) {
	if u == v {
		return
	}
	if len(b.edges) == cap(b.edges) && len(b.edges) >= compactFrom && len(b.edges) > 2*b.sorted {
		// Deduplicate before growing: a registration that crosses one
		// dependence many times (every pair's walk) keeps the list near
		// twice the graph's size.
		b.compact()
	}
	b.edges = append(b.edges, uint64(u)<<32|uint64(v))
	b.current = false
}

// compactFrom is the edge list's length below which it grows without
// deduplicating.
const compactFrom = 1 << 12

// compact sorts the edge list and drops its duplicates.
func (b *Builder) compact() {
	if b.sorted < len(b.edges) {
		slices.Sort(b.edges)
		b.edges = slices.Compact(b.edges)
		b.sorted = len(b.edges)
	}
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
	if comp == id || b.memberOf[id] == int32(comp) {
		return
	}
	if b.memberOf[id] < 0 {
		b.members++
	}
	b.memberOf[id] = int32(comp)
	b.current = false
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
// composite, self-loops dropped and duplicates collapsed, as each vertex's
// successors in ascending order over one backing array, and its edge count.
// The edges are bucketed by source, so only each vertex's few successors are
// sorted.
func (b *Builder) contract() ([][]int32, int) {
	ends := func(e uint64) (int, int) { return b.Contracted(int(e >> 32)), b.Contracted(int(uint32(e))) }
	next := make([]int32, len(b.names)+1) // where each vertex's bucket fills next
	for _, e := range b.edges {
		if u, v := ends(e); u != v {
			next[u+1]++
		}
	}
	for u := 1; u < len(next); u++ {
		next[u] += next[u-1]
	}
	to := make([]int32, next[len(next)-1])
	for _, e := range b.edges {
		if u, v := ends(e); u != v {
			to[next[u]] = int32(v)
			next[u]++
		}
	}
	// Bucket u now ends at next[u] and starts where bucket u-1 ended; the
	// deduplicated buckets are packed down from the front.
	adj := make([][]int32, len(b.names))
	start, edges := int32(0), 0
	for u := range adj {
		succ := to[start:next[u]]
		start = next[u]
		slices.Sort(succ)
		succ = slices.Compact(succ)
		adj[u] = to[edges : edges+len(succ) : edges+len(succ)]
		copy(adj[u], succ)
		edges += len(succ)
	}
	return adj, edges
}

// Certificate contracts composites, counts the resulting graph, and runs
// the deterministic cycle search. The builder stays usable: more edges may
// be added and a further certificate taken over the larger graph (the
// reconfiguration layer certifies a candidate, then adds the retiring
// edges and certifies the transition). A graph unchanged since the last
// certificate is not searched again: the verdict is renamed.
func (b *Builder) Certificate(scheme string) Certificate {
	if !b.current {
		contracted, edges := b.contract()
		b.cert = Certificate{Channels: len(b.names) - b.members, Edges: edges}
		var cycle []int32
		cycle, b.rank = FindCycle(contracted)
		for _, v := range cycle {
			b.cert.Cycle = append(b.cert.Cycle, b.Name(int(v)))
		}
		b.cert.Acyclic = cycle == nil
		b.current = true
	}
	cert := b.cert
	cert.Scheme, cert.Cycle = scheme, slices.Clone(b.cert.Cycle)
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
