package experiments

// Suite golden pins: what `mdxbench` prints, byte for byte. The digest tests
// in golden_test.go say a report is the same at every parallelism level;
// these fixtures — recorded from the parent of the PR that moved the mesh
// and torus baselines onto core.Machine, before any code changed — say
// *what* it is, so a refactor of the experiment bodies, the machine
// builders or the report renderer that changes one digit of one table fails
// here. Rewrite with -update only after an intentional change.

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the suite goldens")

// suiteStdout runs the named experiments and renders them as mdxbench does.
func suiteStdout(t *testing.T, ids string, opt Options) string {
	t.Helper()
	exps, err := Resolve(strings.Split(ids, ","))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range exps {
		r, err := e.Run(opt)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		b.WriteString(RenderReport(r))
	}
	return b.String()
}

func checkSuiteGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("stdout drifted from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("stdout drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
}

// TestQuickSuiteGolden pins `mdxbench -quick -exp all` at -parallel 1 and 4.
func TestQuickSuiteGolden(t *testing.T) {
	for _, p := range []int{1, 4} {
		checkSuiteGolden(t, "quick_all.golden", suiteStdout(t, "all", Options{Quick: true, Parallel: p}))
	}
}

// TestFullSuiteGolden pins the full-scale `mdxbench -exp all -parallel 2`,
// the mesh and torus baselines of E6 and E9 and the engine configurations of
// A1 and A2 among it.
func TestFullSuiteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the full-scale suite takes several seconds")
	}
	checkSuiteGolden(t, "full_all.golden", suiteStdout(t, "all", Options{Parallel: 2}))
}
