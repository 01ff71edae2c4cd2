package core

import (
	"fmt"

	"sr2201/internal/flit"
	"sr2201/internal/geom"
)

// SendUnchecked queues a packet without the reachability precheck; an
// undeliverable packet is dropped inside the network (visible via Dropped).
func (m *Machine) SendUnchecked(src, dst geom.Coord, size int) (uint64, error) {
	if !m.shape.Contains(src) || !m.shape.Contains(dst) {
		return 0, fmt.Errorf("core: src %v or dst %v outside shape", src, dst)
	}
	return m.inject(flit.Header{Src: src, Dst: dst, RC: flit.RCNormal}, size)
}

// WalkReachable is Reachable with every pair walked, as if the machine had
// no crossbar policy to precheck the plain route on: the oracle
// routing.Policy.PlainRoute is held to.
func (m *Machine) WalkReachable(src, dst geom.Coord) error {
	p := m.policy
	m.policy = nil
	defer func() { m.policy = p }()
	return m.Reachable(src, dst)
}
