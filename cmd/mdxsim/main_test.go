package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden matrix")

// TestBaselineMatrixGolden pins stdout and exit code of the twelve baseline
// runs — three topologies, two loads, two patterns on 6x6 — byte for byte.
// The fixture was recorded from the last build in which the baselines ran on
// their own network builder, so it is the proof that hosting them on
// core.Machine changed no simulated cycle; torus-novc's exit code 1
// (DEADLOCK) under uniform traffic is part of it. The -topports runs that
// follow pin node names and per-port traffic on the MD crossbar (with and
// without lanes) and on direct-link lattices; they were recorded from the
// last build with a network builder of its own for the MD crossbar.
func TestBaselineMatrixGolden(t *testing.T) {
	var runs [][]string
	for _, topology := range []string{"mesh", "torus", "torus-novc"} {
		for _, load := range []string{"0.05", "0.3"} {
			for _, pattern := range []string{"uniform", "transpose"} {
				runs = append(runs, []string{"-shape", "6x6", "-topology", topology, "-load", load, "-pattern", pattern})
			}
		}
	}
	for _, args := range []string{
		"-shape 4x4 -topology xbar -load 0.1 -bcast 0.002 -fault rtc:1,1 -topports 4",
		"-shape 4x4 -topology xbar -vcs 2 -adaptive -load 0.1 -topports 4",
		"-shape 4x4 -topology hyperx -load 0.1 -topports 4",
		"-shape 6x6 -topology torus -load 0.05 -topports 4",
	} {
		runs = append(runs, strings.Fields(args))
	}
	var got bytes.Buffer
	for _, args := range runs {
		fmt.Fprintf(&got, "$ mdxsim %s\n", strings.Join(args, " "))
		var stderr bytes.Buffer
		code := run(args, &got, &stderr)
		if stderr.Len() > 0 {
			t.Errorf("%v: stderr %q", args, stderr.String())
		}
		fmt.Fprintf(&got, "exit %d\n\n", code)
	}
	golden := filepath.Join("testdata", "baseline_matrix.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("baseline matrix drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got.Bytes(), want)
	}
}

// TestRefusals: a flag the chosen topology cannot honour is refused (exit 2)
// under the flag's own name, instead of running as if it had taken effect.
func TestRefusals(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of stderr
	}{
		{"-topology mesh -naive-broadcast", "-naive-broadcast: direct-link topologies have no hardware broadcast"},
		{"-topology torus -dxb 0,3", "-dxb: direct-link topologies have no crossbars"},
		{"-topology mesh -bcast 0.01", `-bcast: topology "mesh" has no hardware broadcast`},
		{"-topology hyperx -bcast 0.01", `-bcast: topology "hyperx" has no hardware broadcast`},
		{"-topology mesh -vcs 2 -adaptive", "-vcs: direct-link topologies have no virtual channels"},
		{"-topology torus -fault rtc:1,1", `topology "torus" models no faults`},
		{"-topology hyperx -fault xb:0:0,1", "no crossbars"},
		{"-topology mesh -shape 4x4x4", "-topology: mesh: shape must be 2-dimensional"},
		{"-topology torus -shape 2x6", "-topology: torus: torus extents must be at least 3"},
		{"-topology dragonfly", "-topology: unknown topology (want one of mdx, fullmesh, hyperx, mesh, torus, torus-novc)"},
		{"-adaptive -vcs 2 -dxb 0,3", "-adaptive: needs the unified design"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields("-shape 6x6 "+tc.args), &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("mdxsim %s: exit %d, stderr %q, want exit 2 mentioning %q", tc.args, code, stderr.String(), tc.want)
		}
		if stdout.Len() > 0 {
			t.Errorf("mdxsim %s: refused but printed %q", tc.args, stdout.String())
		}
	}
}

// TestXbarIsMDX: "xbar" stays this tool's spelling of the default topology,
// and the other hosted topologies pass straight through.
func TestXbarIsMDX(t *testing.T) {
	for _, topology := range []string{"xbar", "mdx", "hyperx"} {
		var stdout, stderr bytes.Buffer
		args := strings.Fields("-shape 4x4 -cycles 200 -warmup 50 -topology " + topology)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", topology, code, stderr.String())
		}
		if !strings.HasPrefix(stdout.String(), "topology="+topology+" shape=4x4") || !strings.Contains(stdout.String(), "outcome:              drained") {
			t.Errorf("%s: stdout %q", topology, stdout.String())
		}
	}
}
