package core

import (
	"fmt"
	"strings"
	"testing"

	"sr2201/internal/cdg"
	"sr2201/internal/deadlock"
	"sr2201/internal/engine"
	"sr2201/internal/flit"
	"sr2201/internal/geom"
	"sr2201/internal/topo"
)

// certified is a machine's certified dependence graph, contracted as its
// certificate searches it, laid out for checking a realized wait cycle
// against it.
type certified struct {
	w      topo.Walker
	vertex map[string]int  // channel name → contracted vertex
	tree   map[int]bool    // the composites: vertices channels were absorbed into
	edges  map[[2]int]bool // contracted dependence edges
	adj    [2]map[int][]int
	first  map[int32]bool // channels some route takes out of its source router
	cert   topo.Certificate
}

// certify registers the machine's scheme — the MD crossbar's serialized
// scheme with its broadcast tree contracted, or the direct-link family's — in
// a fresh builder, and walks every route the machine would accept from a
// live source for its first hop.
func certify(t *testing.T, m *Machine) *certified {
	t.Helper()
	b := topo.NewBuilder()
	var err error
	if m.router != nil {
		err = m.router.RegisterDependences(b)
	} else {
		err = cdg.RegisterDependences(b, m.policy, m.shape)
	}
	if err != nil {
		t.Fatal(err)
	}
	c := &certified{
		w:      m.walk,
		vertex: map[string]int{},
		tree:   map[int]bool{},
		edges:  map[[2]int]bool{},
		adj:    [2]map[int][]int{{}, {}},
		first:  map[int32]bool{},
		cert:   b.Certificate("realized"),
	}
	for id := 0; id < b.Len(); id++ {
		v := b.Contracted(id)
		c.vertex[b.Name(id)] = v
		c.tree[v] = c.tree[v] || v != id
	}
	for _, e := range b.ContractedEdges() {
		c.edges[e] = true
		c.adj[0][e[0]] = append(c.adj[0][e[0]], e[1])
		c.adj[1][e[1]] = append(c.adj[1][e[1]], e[0])
	}
	var hop int32
	visit := func(ch int32, _ *flit.Header, depth int) {
		if depth == 0 {
			hop = ch
		}
	}
	m.shape.Enumerate(func(src geom.Coord) bool {
		if !m.Alive(src) {
			return true
		}
		m.shape.Enumerate(func(dst geom.Coord) bool {
			h := flit.Header{Src: src, Dst: dst, RC: flit.RCNormal}
			if c.w.Unicast(&h, visit) == nil {
				c.first[hop] = true
			}
			return true
		})
		if m.policy != nil {
			h := m.policy.BroadcastHeader(src)
			if _, err := c.w.Broadcast(&h, visit); err == nil {
				c.first[hop] = true
			}
		}
		return true
	})
	return c
}

// place lays an engine out-port on the certified graph: its channel and
// contracted vertex, or inj for a PE's injection port.
func (c *certified) place(o *engine.OutPort) (ch int32, v int, inj bool, err error) {
	ch, lane, ok := c.w.ChannelOf(o)
	if !ok {
		return 0, 0, true, nil
	}
	if v, ok = c.vertex[c.w.Name(ch)]; !ok {
		err = fmt.Errorf("%s is no channel of the certified graph", c.w.Name(ch))
	} else if lane != 0 {
		err = fmt.Errorf("%s lane %d is outside the certified lane-0 graph", c.w.Name(ch), lane)
	}
	return ch, v, false, err
}

// check lays every step of a realized wait cycle on the certified graph:
// each step's hop must be a certified edge or lie inside the broadcast-tree
// composite, a hop out of an injection port must wait for some route's first
// hop, and every waited-for channel must lie in one strongly connected
// component. It names the first step that fails.
func (c *certified) check(rep deadlock.Report) error {
	var nexts []int
	for i, e := range rep.Cycle {
		held, next := e.Hop()
		nch, nv, inj, err := c.place(next)
		if err == nil && inj {
			err = fmt.Errorf("waits for an injection port")
		}
		if err != nil {
			return fmt.Errorf("step %d: %v", i, err)
		}
		nexts = append(nexts, nv)
		hch, hv, inj, err := c.place(held)
		switch {
		case err != nil:
			return fmt.Errorf("step %d: %v", i, err)
		case inj && !c.first[nch]:
			return fmt.Errorf("step %d: injection at %s waits for %s, no route's first hop", i, held.Node().Name, c.w.Name(nch))
		case !inj && !(hv == nv && c.tree[hv]) && !c.edges[[2]int{hv, nv}]:
			return fmt.Errorf("step %d: %s -> %s is no certified edge", i, c.w.Name(hch), c.w.Name(nch))
		}
	}
	scc := c.scc(nexts[0])
	for i, v := range nexts {
		if !scc[v] {
			return fmt.Errorf("step %d waits outside the strongly connected component of step 0's channel", i)
		}
	}
	return nil
}

// scc returns the strongly connected component of v in the contracted graph:
// the vertices v reaches that also reach v.
func (c *certified) scc(v int) map[int]bool {
	var reach [2]map[int]bool
	for dir := range reach {
		reach[dir] = map[int]bool{v: true}
		for queue := []int{v}; len(queue) > 0; queue = queue[1:] {
			for _, u := range c.adj[dir][queue[0]] {
				if !reach[dir][u] {
					reach[dir][u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	scc := map[int]bool{}
	for u := range reach[0] {
		if reach[1][u] {
			scc[u] = true
		}
	}
	return scc
}

// inWitnessSCC reports whether v shares a strongly connected component with
// the certificate's refutation witness.
func (c *certified) inWitnessSCC(v int) bool {
	return len(c.cert.Cycle) > 0 && c.scc(c.vertex[c.cert.Cycle[0]])[v]
}

// TestRealizedWaitCycleIsCertified checks the direction of the Dally–Seitz
// correspondence a simulator can witness: every wait cycle the engine wedges
// on lies in the dependence graph the prover certified (and refuted) for the
// same machine. Fixtures: the bare Fig. 9 machine at every broadcast offset
// that deadlocks, and the torus without virtual channels under ring pressure.
func TestRealizedWaitCycleIsCertified(t *testing.T) {
	realize := func(t *testing.T, m *Machine, out deadlock.Outcome) {
		t.Helper()
		if !out.Deadlocked {
			t.Fatalf("no deadlock: %+v", out)
		}
		c := certify(t, m)
		if c.cert.Acyclic {
			t.Fatal("a machine that deadlocked certified acyclic")
		}
		if err := c.check(out.Report); err != nil {
			t.Fatalf("%v\n%s", err, out.Report.Describe())
		}
		_, next := out.Report.Cycle[0].Hop()
		_, v, _, _ := c.place(next)
		t.Logf("%d-step cycle certified; in the refutation witness's component: %v", len(out.Report.Cycle), c.inWitnessSCC(v))
	}

	deadlocks := 0
	for offset := 0; offset <= 10; offset++ {
		m := fig9Machine(t, true)
		fig9Traffic(t, m, offset)
		if out := m.Run(100_000); out.Deadlocked {
			deadlocks++
			t.Run(fmt.Sprintf("fig9-offset%d", offset), func(t *testing.T) { realize(t, m, out) })
		}
	}
	if deadlocks == 0 {
		t.Fatal("no Fig. 9 offset deadlocked")
	}

	t.Run("torus-novc", func(t *testing.T) {
		m := mustMachine(t, Config{Shape: geom.MustShape(4, 4), Topology: "torus-novc", StallThreshold: 128})
		m.Shape().Enumerate(func(src geom.Coord) bool {
			for _, dst := range []geom.Coord{{(src[0] + 2) % 4, src[1]}, {src[0], (src[1] + 2) % 4}} {
				if _, err := m.Send(src, dst, 24); err != nil {
					t.Fatal(err)
				}
			}
			return true
		})
		realize(t, m, m.Run(500_000))
	})
}

// TestRealizedWaitCycleNegativeControl: with one certified edge the Fig. 9
// cycle uses taken out of the graph, the check fails and names that step.
func TestRealizedWaitCycleNegativeControl(t *testing.T) {
	m := fig9Machine(t, true)
	fig9Traffic(t, m, 0)
	out := m.Run(100_000)
	if !out.Deadlocked {
		t.Fatalf("no deadlock: %+v", out)
	}
	c := certify(t, m)
	for i, e := range out.Report.Cycle {
		held, next := e.Hop()
		hch, hv, inj, _ := c.place(held)
		nch, nv, _, _ := c.place(next)
		if inj || c.tree[hv] && hv == nv {
			continue
		}
		delete(c.edges, [2]int{hv, nv})
		want := fmt.Sprintf("step %d: %s -> %s is no certified edge", i, c.w.Name(hch), c.w.Name(nch))
		if err := c.check(out.Report); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("check with edge %s -> %s dropped = %v, want %q", c.w.Name(hch), c.w.Name(nch), err, want)
		}
		return
	}
	t.Fatal("the Fig. 9 cycle takes no certified edge between two channels")
}
