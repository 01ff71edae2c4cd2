package engine

import (
	"testing"

	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

func expectPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// Construction misuse is programmer error and must fail fast.
func TestConstructionMisusePanics(t *testing.T) {
	e := New(DefaultConfig())
	expectPanic(t, "zero-port switch", func() { e.AddSwitch("S", 0, passThrough, nil) })
	expectPanic(t, "nil-route switch", func() { e.AddSwitch("S", 2, nil, nil) })

	a := e.AddEndpoint("A", nil)
	b := e.AddEndpoint("B", nil)
	sw := e.AddSwitch("SW", 2, passThrough, nil)
	e.Connect(a, 0, sw, 0)
	expectPanic(t, "double-connect output", func() { e.ConnectDirected(a, 0, sw, 1) })
	expectPanic(t, "double-connect input", func() { e.ConnectDirected(b, 0, sw, 0) })
	e.Connect(b, 0, sw, 1)
	expectPanic(t, "double physical-channel membership", func() {
		e.SharePhysical(sw.Out[0], sw.Out[1])
		e.SharePhysical(sw.Out[0])
	})
	expectPanic(t, "endpoint port in a physical channel", func() { e.SharePhysical(a.Out[0]) })
}

// A link carries one flit, sent in one cycle and landed in the next: a
// second send into it within a cycle is a kernel bug.
func TestSecondSendIntoLinkPanics(t *testing.T) {
	e := New(Config{BufferDepth: 4})
	a := e.AddEndpoint("A", nil)
	b := e.AddEndpoint("B", nil)
	sw := e.AddSwitch("SW", 2, passThrough, nil)
	e.Connect(a, 0, sw, 0)
	e.Connect(b, 0, sw, 1)
	f := flit.Flit{PacketID: 1, Kind: flit.KindBody}
	e.send(a.Out[0].id, &f)
	expectPanic(t, "second send into one link", func() { e.send(a.Out[0].id, &f) })
	// Once the first has landed, the link takes the next.
	e.land()
	e.send(a.Out[0].id, &f)
	if got := e.in[sw.In[0].id]; got.n != 1 || got.fly != 1 {
		t.Fatalf("after a landing and a send: %d buffered, %d in flight; want 1 and 1", got.n, got.fly)
	}
}

// Routing-function misuse (bad port numbers) must fail fast at allocation.
func TestBadRoutePanics(t *testing.T) {
	cases := []struct {
		name  string
		route RouteFunc
	}{
		{"out of range", func(n *Node, in int, h *flit.Header) (Decision, error) {
			return Decision{Outs: []int{9}}, nil
		}},
		{"duplicate ports", func(n *Node, in int, h *flit.Header) (Decision, error) {
			return Decision{Outs: []int{1, 1}}, nil
		}},
	}
	for _, tc := range cases {
		e := New(DefaultConfig())
		a := e.AddEndpoint("A", nil)
		b := e.AddEndpoint("B", nil)
		sw := e.AddSwitch("SW", 2, tc.route, nil)
		e.Connect(a, 0, sw, 0)
		e.Connect(b, 0, sw, 1)
		e.InjectPacket(a, flit.Header{PacketID: 1, Dst: geom.Coord{}}, 1)
		expectPanic(t, tc.name, func() {
			for i := 0; i < 10; i++ {
				e.Step()
			}
		})
	}
}

// Routing to an unconnected port is also a wiring bug.
func TestUnconnectedPortPanics(t *testing.T) {
	e := New(DefaultConfig())
	a := e.AddEndpoint("A", nil)
	sw := e.AddSwitch("SW", 3, func(n *Node, in int, h *flit.Header) (Decision, error) {
		return Decision{Outs: []int{2}}, nil // port 2 never wired
	}, nil)
	b := e.AddEndpoint("B", nil)
	e.Connect(a, 0, sw, 0)
	e.Connect(b, 0, sw, 1)
	e.InjectPacket(a, flit.Header{PacketID: 1}, 1)
	expectPanic(t, "unconnected port", func() {
		for i := 0; i < 10; i++ {
			e.Step()
		}
	})
}

// An endpoint with no outbound wiring cannot inject.
func TestDanglingEndpointPanics(t *testing.T) {
	e := New(DefaultConfig())
	a := e.AddEndpoint("A", nil)
	e.InjectPacket(a, flit.Header{PacketID: 1}, 1)
	expectPanic(t, "dangling endpoint", func() {
		for i := 0; i < 5; i++ {
			e.Step()
		}
	})
}
