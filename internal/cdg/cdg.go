// Package cdg builds and checks the static channel dependency graph (CDG)
// of a routing configuration — the Dally–Seitz criterion the paper's
// Section 5 argument rests on: deterministic cut-through routing is
// deadlock-free if the "holds channel u, waits for channel v" relation over
// network channels is acyclic.
//
// Channels are the output ports of routers and crossbars. Edges come from:
//
//   - every point-to-point class (all source/destination pairs, including
//     detoured routes): consecutive channels on the path;
//   - every broadcast request leg (source to S-XB): consecutive channels;
//   - the broadcast fan tree. Because the S-XB serializes broadcasts, at
//     most one fan is ever mid-acquisition (paper Section 3.2; verified
//     dynamically by experiments E1/E8), so the whole tree behaves as one
//     composite resource: the analyzer contracts all tree channels into a
//     single node. An edge out of the contracted node into a channel that
//     can lead back into it is exactly the Fig. 9 cyclic wait.
//
// With NaiveBroadcast (no serialization) the contraction is unsound;
// instead the analyzer reports the hazard directly: two simultaneous fans
// whose trees share two or more channels can acquire them in opposite
// orders (paper Fig. 5).
package cdg

import (
	"fmt"
	"slices"

	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
	"sr2201/internal/topo"
)

// Result is the analyzer's verdict.
type Result struct {
	// Channels and Edges count the contracted graph.
	Channels, Edges int
	// Acyclic reports whether the dependency graph has no cycle — the
	// sufficient condition for deadlock freedom.
	Acyclic bool
	// Cycle names the channels of one dependency cycle when !Acyclic. The
	// contracted broadcast tree appears as "BROADCAST-TREE".
	Cycle []string
	// NaiveHazard reports the unserialized-broadcast hazard (Fig. 5): two
	// fan trees overlapping on two or more channels.
	NaiveHazard bool
	// SharedFanChannels counts the overlap behind NaiveHazard.
	SharedFanChannels int
}

// treeName is the contracted broadcast-tree vertex.
const treeName = "BROADCAST-TREE"

// Analyze builds the CDG for the policy over the given shape and checks it.
// naive selects the unserialized broadcast analysis, for a policy configured
// NaiveBroadcast (the fans walked are the policy's own). Sources for broadcasts
// default to every healthy PE. The graph accumulates in a topo.Builder —
// the same prover every registered scheme certifies against — and the
// verdict is its Certificate, re-expressed in the historical Result form.
func Analyze(p *routing.Policy, shape geom.Shape, naive bool) (Result, error) {
	g := newGraph(topo.NewBuilder(), p, shape, 1)
	if naive {
		g.registerUnicast()
		return g.analyzeNaive()
	}
	g.registerSerialized()
	cert := g.Certificate(SchemeName(p, shape))
	return Result{Channels: cert.Channels, Edges: cert.Edges, Acyclic: cert.Acyclic, Cycle: cert.Cycle}, nil
}

// SchemeName names the policy instance for certificates, e.g.
// "mdx-unified-4x4" or "mdx-separate-dxb-4x4".
func SchemeName(p *routing.Policy, shape geom.Shape) string {
	variant := "unified"
	if p.EffectiveSXB() != p.EffectiveDXB() {
		variant = "separate-dxb"
	}
	return fmt.Sprintf("mdx-%s-%s", variant, shape)
}

// RegisterDependences records the paper's serialized scheme in the
// builder: every point-to-point class, every broadcast request leg, and
// the broadcast fan tree contracted into one composite vertex (the S-XB
// serializes broadcasts, so the whole tree is one resource). This is the
// construction Analyze certifies and the topo registry re-certifies in CI.
func RegisterDependences(b *topo.Builder, p *routing.Policy, shape geom.Shape) error {
	newGraph(b, p, shape, 1).registerSerialized()
	return nil
}

// RegisterEscapeDependences records the escape subnetwork of a network built
// with vcs virtual channels per wire: under escape-VC adaptive routing
// (routing.VCPolicy) no packet ever enters lane 0 at a crossbar, and a
// packet on lane 0 stays there until delivery, so the escape channel's
// internal dependences are exactly the unified scheme's — with every channel
// renamed to lane 0 of its wire, i.e. every out-port index scaled by vcs
// (topo.MDCrossbar's port convention scales the PE port the same way). Certifying
// this graph acyclic is the static half of the escape-channel deadlock
// argument; the refutation test registers a mis-ordered (separate D-XB)
// variant the same way and exhibits its cycle.
func RegisterEscapeDependences(b *topo.Builder, p *routing.Policy, shape geom.Shape, vcs int) error {
	if vcs < 2 {
		return fmt.Errorf("cdg: escape registration needs >= 2 virtual channels, got %d", vcs)
	}
	newGraph(b, p, shape, vcs).registerSerialized()
	return nil
}

// Graph is one policy's dependence graph going into a topo.Builder. The
// policy's routes arrive as topo.Walker's channel numbers, plus one number
// past the last channel for the contracted broadcast tree, and are interned
// on first sight (topo.Builder.Intern).
type Graph struct {
	b      *topo.Builder
	p      *routing.Policy
	shape  geom.Shape
	w      topo.Walker
	tree   int32   // the composite's number, one past the last channel
	vertex []int32 // Intern's cache

	// Scratch reused across walks.
	h       flit.Header // the walked header
	route   []int32
	request []int32
	fan     []int32
	visit   topo.Visit // sorts a broadcast's channels into request and fan
	stamp   []int32    // fan-tree membership of the walk in progress, by serial
	serial  int32
}

// newGraph walks the policy over the MD crossbar with vcs lanes per wire: the
// policy's channels are lane 0 of theirs (topo.MDCrossbar's convention), and
// 1 is the plain single-channel network.
func newGraph(b *topo.Builder, p *routing.Policy, shape geom.Shape, vcs int) *Graph {
	w := topo.NewWalker(shape, topo.MDCrossbar{Shape: shape, VCs: vcs}, p)
	g := &Graph{b: b, p: p, shape: shape, w: w, tree: w.Channels()}
	g.visit = func(n int32, h *flit.Header, _ int) {
		if h.RC == flit.RCBroadcastRequest {
			g.request = append(g.request, n)
		} else if g.stamp[n] != g.serial {
			g.stamp[n] = g.serial
			g.fan = append(g.fan, n)
		}
	}
	g.vertex = make([]int32, g.tree+1)
	g.stamp = make([]int32, g.tree)
	return g
}

// NewGraph registers the policy's serialized scheme (RegisterDependences)
// in a fresh builder and keeps the channel numbering, so that more edges —
// a retiring generation's, for the transition proof — can join the same
// graph after its own certificate has been taken.
func NewGraph(p *routing.Policy, shape geom.Shape) *Graph {
	g := newGraph(topo.NewBuilder(), p, shape, 1)
	g.registerSerialized()
	return g
}

// Certificate is the builder's verdict over everything registered so far.
func (g *Graph) Certificate(scheme string) topo.Certificate { return g.b.Certificate(scheme) }

// vertexOf returns the builder vertex of channel n.
func (g *Graph) vertexOf(n int32) int { return g.b.Intern(g.vertex, n, g.name) }

func (g *Graph) name(n int32) string {
	if n == g.tree {
		return treeName
	}
	return g.w.Name(n)
}

// path records the consecutive dependences of one route.
func (g *Graph) path(route []int32) {
	for i := 1; i < len(route); i++ {
		g.b.Edge(g.vertexOf(route[i-1]), g.vertexOf(route[i]))
	}
}

// registerSerialized is the shared construction: every point-to-point
// class, then per source the broadcast request leg, its edge into the
// contracted tree, and the tree's members.
func (g *Graph) registerSerialized() {
	g.registerUnicast()
	g.registerBroadcast()
}

// registerUnicast records every point-to-point class: every reachable
// pair contributes its path; with the pivot extension enabled,
// otherwise-unreachable pairs contribute their two-phase route.
func (g *Graph) registerUnicast() {
	visit := func(n int32, _ *flit.Header, _ int) { g.route = append(g.route, n) }
	walk := func(h flit.Header, err error) error {
		g.route, g.h = g.route[:0], h
		if err != nil {
			return err
		}
		return g.w.Unicast(&g.h, visit)
	}
	n := g.shape.Size()
	for si := 0; si < n; si++ {
		src := g.shape.CoordOf(si)
		for di := 0; di < n; di++ {
			dst := g.shape.CoordOf(di)
			err := walk(g.p.UnicastHeader(src, dst))
			if err != nil && g.p.PivotEnabled() {
				err = walk(g.p.PivotHeader(src, dst))
			}
			if err == nil { // unreachable pairs contribute no dependencies
				g.path(g.route)
			}
		}
	}
}

// registerBroadcast records the broadcast classes: per source the request
// leg, its edge into the contracted tree, and the tree's members.
func (g *Graph) registerBroadcast() {
	treeID := g.vertexOf(g.tree)
	g.shape.Enumerate(func(src geom.Coord) bool {
		if err := g.walkBroadcast(src); err != nil {
			return true // sources that cannot broadcast contribute nothing
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

// walkBroadcast replays the policy's broadcast from src (topo.Walker's
// Broadcast, refusal rule included), leaving the request-leg channel
// sequence in g.request and the fan-tree channel set (channels carrying
// RC=broadcast, in first-reached order) in g.fan.
func (g *Graph) walkBroadcast(src geom.Coord) error {
	g.request, g.fan = g.request[:0], g.fan[:0]
	g.serial++
	g.h = g.p.BroadcastHeader(src)
	_, err := g.w.Broadcast(&g.h, g.visit)
	return err
}

// analyzeNaive checks the unserialized hazard: two distinct sources whose
// fan trees overlap on >= 2 channels can deadlock by acquiring them in
// opposite orders. It also still reports unicast-graph cycles (via the
// builder's certificate over the uncontracted graph).
func (g *Graph) analyzeNaive() (Result, error) {
	var trees [][]int32
	g.shape.Enumerate(func(src geom.Coord) bool {
		if err := g.walkBroadcast(src); err == nil && len(g.fan) > 0 {
			trees = append(trees, slices.Clone(g.fan))
		}
		return len(trees) < 8 // a handful of representatives suffice
	})
	cert := g.Certificate("mdx-naive")
	res := Result{Channels: cert.Channels, Edges: cert.Edges, Cycle: cert.Cycle}
	in := make([]bool, g.tree)
	for i := 0; i < len(trees) && !res.NaiveHazard; i++ {
		clear(in)
		for _, n := range trees[i] {
			in[n] = true
		}
		for j := i + 1; j < len(trees); j++ {
			shared := 0
			for _, n := range trees[j] {
				if in[n] {
					shared++
				}
			}
			if shared >= 2 {
				res.NaiveHazard = true
				res.SharedFanChannels = shared
				break
			}
		}
	}
	res.Acyclic = res.Cycle == nil && !res.NaiveHazard
	return res, nil
}
