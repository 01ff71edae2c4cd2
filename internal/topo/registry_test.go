package topo_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sr2201/internal/topo"

	// Imported for their init() registrations: the gate below certifies
	// every registered scheme family.
	_ "sr2201/internal/topo/escape"
	_ "sr2201/internal/topo/fullmesh"
	_ "sr2201/internal/topo/grid"
	_ "sr2201/internal/topo/hyperx"
	_ "sr2201/internal/topo/mdx"
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
// byte. Run with -update to rewrite the fixtures after an intentional
// change.
func TestCertificateGate(t *testing.T) {
	for _, reg := range topo.Registered() {
		reg := reg
		t.Run(reg.Name, func(t *testing.T) {
			s, err := reg.Canonical()
			if err != nil {
				t.Fatalf("canonical %s: %v", reg.Name, err)
			}
			cert, err := topo.Certify(s)
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
