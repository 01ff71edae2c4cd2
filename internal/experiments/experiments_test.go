package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// allIDs is the registry in mdxbench's run-and-print order: the E-group
// ascending, then the A-, F-, V-, R-, H- and DR-groups.
var allIDs = []string{
	"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14",
	"A1", "A2", "A3", "F1", "F2", "F3", "V1", "V2", "V3", "V4", "R1", "R2", "H1", "H2", "H3", "DR1", "DR2",
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != len(allIDs) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(allIDs))
	}
	for i, id := range allIDs {
		if all[i].ID != id {
			t.Errorf("position %d = %s, want %s", i, all[i].ID, id)
		}
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if _, ok := ByID("Z9"); ok {
		t.Error("bogus id resolved")
	}
}

// TestExperimentsDocIndex holds EXPERIMENTS.md to the registry: its index
// table lists exactly the registered experiments — id, title and paper
// artifact, in run order — and every one of them has a section.
func TestExperimentsDocIndex(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "| id | title | reproduces |\n|---|---|---|\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no index table")
	}
	table, _, _ := strings.Cut(rest, "\n\n")
	var want strings.Builder
	for _, e := range All() {
		fmt.Fprintf(&want, "| %s | %s | %s |\n", e.ID, e.Title, e.Paper)
		if !strings.Contains(string(doc), "\n## "+e.ID+" — ") {
			t.Errorf("EXPERIMENTS.md has no section for %s", e.ID)
		}
	}
	if got := table + "\n"; got != want.String() {
		t.Errorf("EXPERIMENTS.md index drifted from the registry:\n--- doc ---\n%s--- registry ---\n%s", got, want.String())
	}
}

// Every experiment must run in Quick mode, produce at least one table, and
// meet its shape criterion — these are the reproduction's headline checks.
func TestAllExperimentsQuickPass(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r, err := e.Run(Options{Quick: true})
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(r.Tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range r.Tables {
				if tb.Rows() == 0 {
					t.Errorf("%s has an empty table %q", e.ID, tb.Title)
				}
			}
			if !r.Pass {
				t.Errorf("%s shape criterion failed:\n%s", e.ID, r.String())
			}
			s := r.String()
			if !strings.Contains(s, e.ID) {
				t.Errorf("%s report missing id:\n%s", e.ID, s)
			}
		})
	}
}
