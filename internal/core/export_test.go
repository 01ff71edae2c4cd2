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
