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

// Channel identifies one directed network channel: the out-port of a router
// or crossbar.
type Channel struct {
	// Router is true for a relay-switch channel; false for a crossbar.
	Router bool
	// Coord locates a router channel; Line a crossbar channel.
	Coord geom.Coord
	Line  geom.Line
	// Out is the output port index.
	Out int
}

// String renders the channel, e.g. "RTC(1,2).out0" or "XB0(0,1).out2".
func (c Channel) String() string {
	if c.Router {
		return fmt.Sprintf("RTC%s.out%d", c.Coord, c.Out)
	}
	return fmt.Sprintf("XB%d%s.out%d", c.Line.Dim, c.Line.Fixed, c.Out)
}

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
// policy's routes arrive as integers: every channel of the shape has a dense
// number — a router's d+1 out-ports first, routers in Shape.Index order,
// then each dimension's crossbars in LineIndex order, then one number for
// the contracted broadcast tree — and vertex[] maps a number to the
// builder's vertex id. A channel is rendered to its name, and the name
// interned, once: the first time a route crosses it. That keeps the
// builder's vertex numbering in first-seen order, which the cycle witness
// depends on, while the other few thousand crossings are an array read.
type Graph struct {
	b     *topo.Builder
	p     *routing.Policy
	shape geom.Shape
	dims  int
	// vcs scales out-port indices in channel names (lane 0 of a vcs-lane
	// wire); 1 is the plain single-channel network.
	vcs    int
	xbBase []int32 // xbBase[k] numbers dimension k's first crossbar channel
	tree   int32   // the composite's number, one past the last channel
	vertex []int32 // channel number -> builder vertex id, -1 until first seen

	// Scratch reused across walks.
	route   []int32
	request []int32
	fan     []int32
	walk    routing.BroadcastWalk
	visit   routing.BroadcastVisitor // sorts a broadcast's channels into request and fan
	stamp   []int32                  // fan-tree membership of the walk in progress, by serial
	serial  int32
}

func newGraph(b *topo.Builder, p *routing.Policy, shape geom.Shape, vcs int) *Graph {
	g := &Graph{b: b, p: p, shape: shape, dims: shape.Dims(), vcs: vcs}
	g.visit = func(dim, index, out int, h *flit.Header, _ int) {
		n := g.number(dim, index, out)
		if h.RC == flit.RCBroadcastRequest {
			g.request = append(g.request, n)
		} else if g.stamp[n] != g.serial {
			g.stamp[n] = g.serial
			g.fan = append(g.fan, n)
		}
	}
	next := int32(shape.Size() * (g.dims + 1))
	for k, extent := range shape {
		g.xbBase = append(g.xbBase, next)
		next += int32(shape.LineCount(k) * extent)
	}
	g.tree = next
	g.vertex = make([]int32, next+1)
	for i := range g.vertex {
		g.vertex[i] = -1
	}
	g.stamp = make([]int32, next)
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

// number is the dense number of a channel as routing's walkers report it.
func (g *Graph) number(dim, index, out int) int32 {
	if dim < 0 {
		return int32(index*(g.dims+1) + out)
	}
	return g.xbBase[dim] + int32(index*g.shape[dim]+out)
}

// channelOf inverts number (the tree's number excepted).
func (g *Graph) channelOf(n int32) Channel {
	if n < g.xbBase[0] {
		ports := int32(g.dims + 1)
		return Channel{Router: true, Coord: g.shape.CoordOf(int(n / ports)), Out: int(n%ports) * g.vcs}
	}
	dim := g.dims - 1
	for n < g.xbBase[dim] {
		dim--
	}
	n -= g.xbBase[dim]
	extent := int32(g.shape[dim])
	return Channel{Line: g.shape.LineAt(dim, int(n/extent)), Out: int(n%extent) * g.vcs}
}

// vertexOf returns the builder vertex of channel n, interning it by name on
// first sight.
func (g *Graph) vertexOf(n int32) int {
	if v := g.vertex[n]; v >= 0 {
		return int(v)
	}
	name := treeName
	if n != g.tree {
		name = g.channelOf(n).String()
	}
	v := g.b.Channel(name)
	g.vertex[n] = int32(v)
	return v
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
	visit := func(dim, index, out int) { g.route = append(g.route, g.number(dim, index, out)) }
	n := g.shape.Size()
	for si := 0; si < n; si++ {
		src := g.shape.CoordOf(si)
		for di := 0; di < n; di++ {
			dst := g.shape.CoordOf(di)
			g.route = g.route[:0]
			if err := g.p.UnicastChannels(src, dst, visit); err != nil {
				if !g.p.PivotEnabled() {
					continue // unreachable pairs contribute no dependencies
				}
				g.route = g.route[:0]
				if err := g.p.PivotChannels(src, dst, visit); err != nil {
					continue
				}
			}
			g.path(g.route)
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

// walkBroadcast replays the policy's broadcast from src (routing's
// WalkBroadcast, refusal rule included), leaving the request-leg channel
// sequence in g.request and the fan-tree channel set (channels carrying
// RC=broadcast, in first-reached order) in g.fan.
func (g *Graph) walkBroadcast(src geom.Coord) error {
	g.request, g.fan = g.request[:0], g.fan[:0]
	g.serial++
	_, err := g.p.WalkBroadcast(src, &g.walk, g.visit)
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
