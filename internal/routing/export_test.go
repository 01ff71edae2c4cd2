package routing

import "sr2201/internal/flit"

// CrossbarHops counts the crossbar traversals on the path (the paper's hop
// metric: "any two PEs communicate with a maximum of d hops").
func CrossbarHops(path []Hop) int {
	n := 0
	for _, h := range path {
		if h.Kind == HopXB {
			n++
		}
	}
	return n
}

// DetourLength counts the hops traveled with RC=detour.
func DetourLength(path []Hop) int {
	n := 0
	for _, h := range path {
		if h.RC == flit.RCDetour {
			n++
		}
	}
	return n
}
