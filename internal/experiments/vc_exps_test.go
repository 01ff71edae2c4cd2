package experiments

import "testing"

// TestV3ZeroRecoveries locks the V-series claim at campaign scale: the adaptive single-fault sweep, with recovery wired into
// each cell, never needs a sacrifice — deadlock freedom comes from the
// escape channel alone.
func TestV3ZeroRecoveries(t *testing.T) {
	e, ok := ByID("V3")
	if !ok {
		t.Fatal("V3 not registered")
	}
	r, err := e.Run(Options{Quick: true, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Fatalf("V3 failed its shape criterion:\n%s", r.String())
	}
}
