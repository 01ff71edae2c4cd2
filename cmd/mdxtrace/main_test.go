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

var update = flag.Bool("update", false, "rewrite the trace golden")

// TestTraceGolden pins what the tool prints, stdout, stderr and exit code,
// byte for byte: the three walkthroughs of the package comment (the Fig. 2
// route, the Fig. 8 detour and the Fig. 6 broadcast), a detour on 4x4x4 and
// a refused pair. The fixture was recorded from the last build in which the
// static paths and trees came from routing's own walkers, so it pins that
// moving them onto topo.Walker changed no route, tree or refusal text.
func TestTraceGolden(t *testing.T) {
	var got bytes.Buffer
	for _, args := range []string{
		"-shape 4x3 -src 0,0 -dst 2,2",
		"-shape 4x3 -src 0,0 -dst 2,2 -fault rtc:2,0",
		"-shape 4x3 -src 3,2 -broadcast",
		"-shape 4x4x4 -src 0,0,0 -dst 2,2,2 -fault rtc:2,0,0",
		"-shape 4x3 -src 0,0 -dst 2,2 -fault xb:1:2,0",
	} {
		fmt.Fprintf(&got, "$ mdxtrace %s\n", args)
		var stderr bytes.Buffer
		code := run(strings.Fields(args), &got, &stderr)
		for _, line := range strings.SplitAfter(stderr.String(), "\n") {
			if line != "" {
				got.WriteString("stderr: " + line)
			}
		}
		fmt.Fprintf(&got, "exit %d\n\n", code)
	}
	golden := filepath.Join("testdata", "trace.golden")
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
		t.Errorf("trace drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got.Bytes(), want)
	}
}
