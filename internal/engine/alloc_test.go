//go:build !race

package engine

// Allocation pins (the race detector instruments allocations, hence the
// build tag).

import "testing"

// TestReserveAllocatesNothing: a fabric built into the room Reserve made —
// switches, endpoints and links, the ring of TestReserve — allocates
// nothing: every node, handle, column, slab slot and active-set word is
// already there.
func TestReserveAllocatesNothing(t *testing.T) {
	const k = 6
	engines := make([]*Engine, 3)
	for i := range engines {
		engines[i] = New(DefaultConfig())
		engines[i].Reserve(Size{Switches: k, Endpoints: k, SwitchPorts: 3 * k, Links: 3 * k})
	}
	next := 0
	allocs := testing.AllocsPerRun(len(engines)-1, func() {
		e := engines[next]
		next++
		for i := 0; i < k; i++ {
			ep, sw := e.AddEndpoint("E", nil), e.AddSwitch("S", 3, passThrough, nil)
			e.Connect(ep, 0, sw, 0)
		}
		for i := 0; i < k; i++ {
			e.ConnectDirected(e.Switches()[i], 2, e.Switches()[(i+1)%k], 1)
		}
	})
	if allocs != 0 {
		t.Errorf("building into the reserved room allocated %v times, want 0", allocs)
	}
}
