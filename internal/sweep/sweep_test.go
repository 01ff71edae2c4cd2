package sweep

// Run with -race: these tests exist as much to give the race detector
// something to chew on (concurrent workers writing disjoint result slots,
// concurrent machines sharing no engine state) as to pin the ordering
// semantics.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"sr2201/internal/core"
	"sr2201/internal/geom"
)

func TestDoOrdersResultsByIndex(t *testing.T) {
	for _, parallel := range []int{1, 2, 7, 64, 0, -1} {
		got, _ := Do(nil, nil, 50, parallel, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%d: result[%d] = %d, want %d", parallel, i, v, i*i)
			}
		}
	}
}

func TestDoResultsIdenticalAcrossParallelism(t *testing.T) {
	work := func(i int) string { return fmt.Sprintf("run-%03d", i*7%13) }
	serial, _ := Do(nil, nil, 40, 1, work)
	for _, parallel := range []int{2, 4, 16} {
		par, _ := Do(nil, nil, 40, parallel, work)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("parallel=%d: result[%d] = %q, want %q", parallel, i, par[i], serial[i])
			}
		}
	}
}

func TestDoEdgeCases(t *testing.T) {
	if r, _ := Do(nil, nil, 0, 4, func(i int) int { return i }); r != nil {
		t.Errorf("n=0 returned %v", r)
	}
	if r, _ := Do(nil, nil, -3, 4, func(i int) int { return i }); r != nil {
		t.Errorf("n<0 returned %v", r)
	}
	// parallel > n must still run every index exactly once.
	var calls atomic.Int64
	r, _ := Do(nil, nil, 3, 100, func(i int) int { calls.Add(1); return i })
	if calls.Load() != 3 || len(r) != 3 {
		t.Errorf("n=3 parallel=100: %d calls, %d results", calls.Load(), len(r))
	}
}

func TestDoErrReportsFirstErrorByIndex(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	// Index 3 and 7 both fail; the reported error must be index 3's no
	// matter which completed first.
	for _, parallel := range []int{1, 4} {
		results, err := DoErr(nil, nil, 10, parallel, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errA
			case 7:
				return 0, errB
			}
			return i, nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("parallel=%d: err = %v, want errA", parallel, err)
		}
		if len(results) != 10 || results[9] != 9 {
			t.Fatalf("parallel=%d: results truncated: %v", parallel, results)
		}
	}
	if _, err := DoErr(nil, nil, 5, 2, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
}

// TestConcurrentMachinesShareNoState runs full simulations on every worker
// simultaneously; under -race this fails loudly if any engine state (pools,
// scratch buffers, arbiters) leaks across machines.
func TestConcurrentMachinesShareNoState(t *testing.T) {
	shape := []int{4, 4}
	run := func(i int) uint64 {
		m, err := core.NewMachine(core.Config{Shape: geom.MustShape(shape...), StallThreshold: 256})
		if err != nil {
			t.Error(err)
			return 0
		}
		sh := m.Shape()
		for s := 0; s < sh.Size(); s++ {
			_, _ = m.Send(sh.CoordOf(s), sh.CoordOf((s+i+1)%sh.Size()), 4+i%5)
		}
		m.Run(100_000)
		return m.Engine().StateHash()
	}
	serial, _ := Do(nil, nil, 12, 1, run)
	parallelRes, _ := Do(nil, nil, 12, 8, run)
	for i := range serial {
		if serial[i] != parallelRes[i] {
			t.Errorf("run %d: hash %#x serial vs %#x parallel — engine state leaked across goroutines", i, serial[i], parallelRes[i])
		}
	}
}

func TestDefaultParallel(t *testing.T) {
	if DefaultParallel() < 1 {
		t.Fatalf("DefaultParallel() = %d", DefaultParallel())
	}
}
