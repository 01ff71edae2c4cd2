package topo_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sr2201/internal/fault"
	"sr2201/internal/geom"
	"sr2201/internal/routing"
	"sr2201/internal/topo"
	"sr2201/internal/topo/escape"
	"sr2201/internal/topo/mdx"

	// Imported for their init() registrations: the gate below certifies
	// every registered scheme family.
	_ "sr2201/internal/topo/fullmesh"
	_ "sr2201/internal/topo/grid"
	_ "sr2201/internal/topo/hyperx"
)

var update = flag.Bool("update", false, "rewrite golden certificates")

// TestRegisteredSchemes pins the registry contents: the seven shipped
// families, sorted by name. A scheme that forgets to register escapes the
// certificate gate, so the set itself is part of the contract.
func TestRegisteredSchemes(t *testing.T) {
	want := []string{"escape", "fullmesh", "hyperx", "mdx", "mesh", "torus", "torus-novc"}
	regs := topo.Registered()
	if len(regs) != len(want) {
		t.Fatalf("%d registered schemes, want %d", len(regs), len(want))
	}
	for i, r := range regs {
		if r.Name != want[i] {
			t.Errorf("registration %d is %q, want %q", i, r.Name, want[i])
		}
	}
}

// TestCertificateGate is the deadlock-freedom regression gate CI runs: every
// registered scheme's canonical instance must certify acyclic — or, for the
// one family registered as a refuted counter-example, cyclic — and the full
// certificate, witness included, must match its golden fixture byte for
// byte, and the prover's verdict must agree with checkRank's reading of its
// witness. Run with -update to rewrite the fixtures after an intentional
// change.
func TestCertificateGate(t *testing.T) {
	for _, reg := range topo.Registered() {
		reg := reg
		t.Run(reg.Name, func(t *testing.T) {
			s, err := reg.Canonical()
			if err != nil {
				t.Fatalf("canonical %s: %v", reg.Name, err)
			}
			cert, err := certifyChecked(t, s)
			if err != nil {
				t.Fatalf("certify %s: %v", reg.Name, err)
			}
			if !cert.Acyclic && !reg.Refuted {
				t.Fatalf("scheme %s regressed to cyclic; witness: %v", s.Name(), cert.Cycle)
			}
			if cert.Acyclic && reg.Refuted {
				t.Fatalf("counter-example %s certified acyclic: the prover lost the ring", s.Name())
			}
			golden := filepath.Join("testdata", "cert_"+reg.Name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(cert.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got := cert.String(); got != string(want) {
				t.Errorf("certificate drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// checkRank is the certificate's independent judge. It trusts neither the
// builder nor its cycle search: given only the contracted edges and the
// claimed rank, it accepts when the rank numbers the vertices 0..n-1, each
// once, and every edge strictly climbs it — a Dally–Seitz channel order, so
// the graph has no cycle.
func checkRank(edges [][2]int, rank []int32) error {
	seen := make([]bool, len(rank))
	for v, r := range rank {
		if r < 0 || int(r) >= len(rank) || seen[r] {
			return fmt.Errorf("vertex %d has rank %d: not a permutation of 0..%d", v, r, len(rank)-1)
		}
		seen[r] = true
	}
	for _, e := range edges {
		if e[0] >= len(rank) || e[1] >= len(rank) {
			return fmt.Errorf("edge %v leaves the %d ranked vertices", e, len(rank))
		}
		if rank[e[0]] >= rank[e[1]] {
			return fmt.Errorf("edge %v does not climb: rank %d then %d", e, rank[e[0]], rank[e[1]])
		}
	}
	return nil
}

// certifyChecked is topo.Certify with the verdict held to checkRank: an
// acyclic certificate's witness must pass, and no rank may pass on a cyclic
// graph.
func certifyChecked(t *testing.T, s topo.Scheme) (topo.Certificate, error) {
	t.Helper()
	b := topo.NewBuilder()
	if err := s.RegisterDependences(b); err != nil {
		return topo.Certificate{}, err
	}
	cert := b.Certificate(s.Name())
	if err := checkRank(b.ContractedEdges(), b.Rank()); (err == nil) != cert.Acyclic {
		t.Errorf("%s: certificate acyclic=%v, but the witness check says %v", s.Name(), cert.Acyclic, err)
	}
	return cert, nil
}

// TestRankWitness runs the checker over internal/cdg's pin corpus of MD
// crossbar schemes (its cyclic members too, whose missing witness must be
// refused) and the escape subnetwork at 4 lanes, and shows it bites: one
// swapped pair of ranks must fail it.
func TestRankWitness(t *testing.T) {
	faults := func(shape geom.Shape, f fault.Fault) *fault.Set {
		set := fault.NewSet(shape)
		if err := set.Add(f); err != nil {
			t.Fatal(err)
		}
		return set
	}
	sh44, sh43 := geom.MustShape(4, 4), geom.MustShape(4, 3)
	corpus := []routing.Config{
		{Shape: geom.MustShape(3, 3)}, {Shape: sh43}, {Shape: sh44}, {Shape: geom.MustShape(3, 3, 2)}, {Shape: geom.MustShape(6)},
		{Shape: sh44, SXB: geom.Coord{0, 0}, DXB: geom.Coord{0, 3}},
		{Shape: sh44, SXB: geom.Coord{0, 0}, DXB: geom.Coord{0, 3}, Faults: faults(sh44, fault.RouterFault(geom.Coord{2, 1}))},
		{Shape: sh44, PivotLastDim: true, Faults: faults(sh44, fault.XBFault(geom.Line{Dim: 1, Fixed: geom.Coord{2, 0}}))},
	}
	sh43.Enumerate(func(c geom.Coord) bool {
		corpus = append(corpus, routing.Config{Shape: sh43, Faults: faults(sh43, fault.RouterFault(c))})
		return true
	})
	for _, cfg := range corpus {
		s, err := mdx.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		certifyChecked(t, s)
	}
	esc, err := escape.New(routing.Config{Shape: sh44}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cert, _ := certifyChecked(t, esc); !cert.Acyclic {
		t.Fatalf("escape at 4 lanes cyclic: %v", cert.Cycle)
	}

	b := topo.NewBuilder()
	s, _ := mdx.New(routing.Config{Shape: sh44})
	if err := s.RegisterDependences(b); err != nil {
		t.Fatal(err)
	}
	b.Certificate(s.Name())
	edges, rank := b.ContractedEdges(), b.Rank()
	if err := checkRank(edges, rank); err != nil {
		t.Fatalf("the witness of %s fails: %v", s.Name(), err)
	}
	e := edges[len(edges)/2]
	rank[e[0]], rank[e[1]] = rank[e[1]], rank[e[0]]
	if checkRank(edges, rank) == nil {
		t.Fatalf("a rank with the ends of edge %v swapped passed the check", e)
	}
}
