package stats

import (
	"strings"
	"testing"

	"sr2201/internal/engine"
	"sr2201/internal/flit"
)

// tinyNet builds EP -> SW -> EP and pushes a packet through it.
func tinyNet(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.DefaultConfig())
	a := e.AddEndpoint("A", nil)
	b := e.AddEndpoint("B", nil)
	route := func(n *engine.Node, in int, h *flit.Header) (engine.Decision, error) {
		return engine.Decision{Outs: []int{1 - in}}, nil
	}
	sw := e.AddSwitch("SW", 2, route, nil)
	e.Connect(a, 0, sw, 0)
	e.Connect(b, 0, sw, 1)
	e.InjectPacket(a, flit.Header{PacketID: 1}, 4)
	if !e.RunUntilQuiescent(100) {
		t.Fatal("did not drain")
	}
	return e
}

func TestTopPorts(t *testing.T) {
	e := tinyNet(t)
	ports := TopPorts(e, 0)
	if len(ports) != 1 {
		t.Fatalf("ports = %+v", ports)
	}
	p := ports[0]
	if p.Node != "SW" || p.Port != 1 || p.Busy != 4 {
		t.Errorf("port = %+v", p)
	}
	if p.Frac <= 0 || p.Frac > 1 {
		t.Errorf("frac = %v", p.Frac)
	}
	// Limit applies.
	if got := TopPorts(e, 1); len(got) != 1 {
		t.Errorf("limited ports = %d", len(got))
	}
}

func TestUtilizationTable(t *testing.T) {
	e := tinyNet(t)
	tb := UtilizationTable(e, 5)
	s := tb.String()
	if !strings.Contains(s, "SW.out1") || !strings.Contains(s, "Busiest") {
		t.Errorf("table = %s", s)
	}
}
