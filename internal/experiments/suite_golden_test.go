package experiments

// Suite golden pins: what `mdxbench` prints, byte for byte. The digest tests
// in golden_test.go say a report is the same on every run and at every
// parallelism level; these fixtures — recorded from the parent of the PR that
// moved the mesh and torus baselines onto core.Machine, before any code
// changed — say *what* it is, so a refactor of the experiment bodies, the
// machine builders or the report renderer that changes one digit of one
// table fails here. Rewrite with -update only after an intentional change.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
	if *updateVC {
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

// TestFullE6E9Golden pins the full-scale `mdxbench -exp e6,e9`: the two
// experiments that run the mesh and torus baselines beside the crossbar.
func TestFullE6E9Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale E6 takes several seconds")
	}
	checkSuiteGolden(t, "full_e6_e9.golden", suiteStdout(t, "e6,e9", Options{Parallel: 2}))
}
