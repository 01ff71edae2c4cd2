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
	return "mdx-" + variant + "-" + shape.String()
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
// on first sight (topo.Numbering).
type Graph struct {
	b     *topo.Builder
	p     *routing.Policy
	shape geom.Shape
	w     topo.Walker
	tree  int32 // the composite's number, one past the last channel
	num   *topo.Numbering

	// Scratch reused across walks.
	h       flit.Header // the walked header
	route   []int32
	walked  []int32  // the memo states a unicast walk has entered
	sent    []uint64 // by channel: the successors path has sent, by port
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
	g.num = b.Numbering(g.tree+1, g.name)
	g.stamp = make([]int32, g.tree)
	g.sent = make([]uint64, g.tree)
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
func (g *Graph) vertexOf(n int32) int { return g.num.Intern(n) }

func (g *Graph) name(n int32) string {
	if n == g.tree {
		return treeName
	}
	return g.w.Name(n)
}

// path records the consecutive dependences of one route. A channel's
// successors on any route are out-ports of the one switch it leads to, so
// their port numbers tell them apart, and sent[u] marks those already sent to
// the builder from channel u: the same dependence crossed toward every
// destination reaches the builder once (a port past 63 is always sent).
func (g *Graph) path(route []int32) {
	for i := 1; i < len(route); i++ {
		u, v := g.vertexOf(route[i-1]), g.vertexOf(route[i])
		if _, _, out := g.w.Port(route[i]); out < 64 {
			if g.sent[route[i-1]]&(1<<out) != 0 {
				continue
			}
			g.sent[route[i-1]] |= 1 << out
		}
		g.b.Edge(u, v)
	}
}

// registerSerialized is the shared construction: every point-to-point
// class, then per source the broadcast request leg, its edge into the
// contracted tree, and the tree's members.
func (g *Graph) registerSerialized() {
	g.registerUnicast()
	g.registerBroadcast()
}

// The unicast memo's states: per destination, two per channel (the packet
// took the channel with RC normal, or with RC detour), 2 bits each.
const (
	unseen   = 0
	walking  = 1 // on the walk in progress
	delivers = 2
	refused  = 3
)

// registerUnicast records every point-to-point class: every reachable pair
// contributes its path. Pairs go source-major, as the per-pair walk
// (registerUnicastPerPair, oracle_test.go) takes them, so channels are
// interned in its first-seen order.
//
// A switch decides from where it is, the in-port, the destination and the RC
// bit alone (routing's TestDecisionReadsOnlyPortDstAndRC holds every decision
// to that), and a channel fixes the switch and in-port it leads to. So a
// packet's route past a channel is a function of the channel, its RC and its
// destination, and a walk stops at the first (channel, RC) state an earlier
// walk to its destination entered. If that walk delivered, everything past
// the state is registered, and this walk registers its prefix and the edge
// into the state; if it was refused, so is this walk, which registers
// nothing. A walk that re-enters its own state loops, and is refused, as the
// per-pair walk refuses a route longer than the network has channels (no
// route the policy delivers comes near that). A faulty source's row is
// refused whole, as UnicastHeader refuses each pair of it. The memo holds 2
// bits per (destination, channel, RC) state, only for the call.
func (g *Graph) registerUnicast() {
	n := g.shape.Size()
	states := 2 * int(g.tree) // per destination
	memo := make([]uint64, (n*states+31)/32)
	dsts := make([]geom.Coord, n)
	for di := range dsts {
		dsts[di] = g.shape.CoordOf(di)
	}
	var (
		base  int    // the walked destination's first state
		known uint64 // the memo's value of the state a walk stopped at
	)
	stop := func(ch int32, h *flit.Header) bool {
		g.route = append(g.route, ch)
		s := base + 2*int(ch)
		switch h.RC {
		case flit.RCNormal:
		case flit.RCDetour:
			s++
		default:
			return false // no unicast state: walked through, not kept
		}
		word, shift := s>>5, uint(s&31)*2
		if known = memo[word] >> shift & 3; known != unseen {
			return true
		}
		memo[word] |= walking << shift
		g.walked = append(g.walked, int32(s))
		return false
	}
	for si := 0; si < n; si++ {
		if !g.p.Sends(si) {
			continue
		}
		src := g.shape.CoordOf(si)
		h, err := g.p.UnicastHeader(src, src)
		if err != nil {
			continue
		}
		for di, dst := range dsts {
			g.h, g.h.Dst = h, dst // a pair's header differs from its row's only there
			g.route, g.walked, base = g.route[:0], g.walked[:0], di*states
			stopped, err := g.w.UnicastUntil(&g.h, stop)
			outcome := uint64(delivers)
			if err != nil || stopped && known != delivers {
				outcome = refused // unreachable pairs contribute no dependencies
			}
			for _, s := range g.walked {
				memo[s>>5] ^= (walking ^ outcome) << (uint(s&31) * 2)
			}
			if outcome == delivers {
				g.path(g.route)
			}
		}
	}
}

// registerBroadcast records the broadcast classes: per source the request
// leg, its edge into the contracted tree, and the tree's members. A request
// leg ends at the S-XB, whose fan is the same whatever the source, so the
// first source that reaches it walks the whole tree and every later one only
// its request leg; the tree's members are absorbed once. A naive fan is
// rooted at its source, so there every source walks its own tree.
func (g *Graph) registerBroadcast() {
	treeID := g.vertexOf(g.tree)
	serialized := g.p.BroadcastHeader(geom.Coord{}).RC == flit.RCBroadcastRequest
	fanned := false // g.fan holds the S-XB's fan, absorbed into the tree
	g.shape.Enumerate(func(src geom.Coord) bool {
		var err error
		if fanned {
			err = g.walkRequest(src)
		} else {
			err = g.walkBroadcast(src)
		}
		if err != nil {
			return true // sources that cannot broadcast contribute nothing
		}
		g.path(g.request)
		if len(g.request) > 0 && len(g.fan) > 0 {
			g.b.Edge(g.vertexOf(g.request[len(g.request)-1]), treeID)
		}
		if !fanned {
			for _, n := range g.fan {
				g.b.Absorb(treeID, g.vertexOf(n))
			}
			fanned = serialized
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

// walkRequest is walkBroadcast up to the S-XB: it leaves the request leg in
// g.request and g.fan as it was.
func (g *Graph) walkRequest(src geom.Coord) error {
	g.request = g.request[:0]
	g.h = g.p.BroadcastHeader(src)
	return g.w.Request(&g.h, g.visit)
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
