package topo

import (
	"fmt"
	"sort"
	"sync"

	"sr2201/internal/fault"
	"sr2201/internal/geom"
)

// Registration names one scheme family and builds a canonical instance of
// it for certification. The CI certificate gate iterates every
// registration, certifies the instance, and fails the build if any
// certificate drifts from its golden or changes verdict. A direct-link
// family is declared here and nowhere else: core.Machine hosts every
// registration that has a New under its Name as the topology name.
type Registration struct {
	// Name is the family name ("mdx", "hyperx", "mesh").
	Name string
	// Canonical builds the family's reference instance: a representative
	// shape, fault-free unless a fault is what the family is about (the
	// pivot extension's canonical instance has its faulty crossbar).
	Canonical func() (Scheme, error)
	// New builds the family's Router for a machine's shape and live fault
	// set, rejecting shapes the family cannot be built on. Nil for families
	// that are not direct-link lattices (mdx, mdx-pivot, escape).
	New func(shape geom.Shape, faults *fault.Set) (Router, error)
	// Faults reports that New's routers honour the fault set (router and
	// link faults). A family that models none ignores it, and the machine
	// refuses to fault it.
	Faults bool
	// Refuted marks a counter-example family: its canonical instance must
	// certify *cyclic*, with the golden pinning the witness, and a machine
	// built on it, where one can be (New), can deadlock.
	Refuted bool
}

var (
	regMu  sync.Mutex
	regMap = map[string]Registration{}
)

// Register records a scheme family. Panics on a duplicate name, matching
// the experiments registry convention: a collision is a programming error.
func Register(r Registration) {
	regMu.Lock()
	defer regMu.Unlock()
	if r.Name == "" || r.Canonical == nil {
		panic("topo: Register needs a name and a canonical builder")
	}
	if _, dup := regMap[r.Name]; dup {
		panic(fmt.Sprintf("topo: duplicate scheme registration %q", r.Name))
	}
	regMap[r.Name] = r
}

// Registered returns all registrations sorted by name.
func Registered() []Registration {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Registration, 0, len(regMap))
	for _, r := range regMap {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup returns the registration of the named family.
func Lookup(name string) (Registration, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	r, ok := regMap[name]
	return r, ok
}
