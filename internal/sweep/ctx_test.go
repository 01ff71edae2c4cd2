package sweep

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDoCtxMatchesDo: a sweep under a context and a shared budget returns
// what the plain sweep (no context, no Limiter) does.
func TestDoCtxMatchesDo(t *testing.T) {
	fn := func(i int) int { return i * i }
	want, _ := Do(nil, nil, 100, 4, fn)
	for _, parallel := range []int{1, 2, 8} {
		for _, lim := range []*Limiter{nil, NewLimiter(3)} {
			got, err := Do(context.Background(), lim, 100, parallel, fn)
			if err != nil {
				t.Fatalf("parallel=%d lim=%v: %v", parallel, lim, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("parallel=%d: result[%d] = %d, want %d", parallel, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDoCtxNilContextAndEmpty(t *testing.T) {
	got, err := Do(nil, nil, 4, 2, func(i int) int { return i })
	if err != nil || len(got) != 4 {
		t.Fatalf("nil ctx: %v %v", got, err)
	}
	if got, err := Do(context.Background(), nil, 0, 2, func(i int) int { return i }); err != nil || got != nil {
		t.Fatalf("n=0: %v %v", got, err)
	}
}

func TestDoCtxCancellationStopsEarly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	const n = 1000
	_, err := Do(ctx, nil, n, 2, func(i int) int {
		if started.Add(1) == 10 {
			cancel()
		}
		return i
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := started.Load(); s >= n {
		t.Errorf("all %d cells ran despite cancellation", s)
	}
}

func TestDoCtxSerialCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	_, err := Do(ctx, nil, 1000, 1, func(i int) int {
		ran++
		if i == 5 {
			cancel()
		}
		return i
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran != 6 {
		t.Errorf("serial sweep ran %d cells after cancel at 5, want 6", ran)
	}
}

func TestDoCtxErrSemantics(t *testing.T) {
	boom := errors.New("boom")
	// First error by index wins, regardless of completion order.
	_, err := DoErr(context.Background(), nil, 10, 4, func(i int) (int, error) {
		if i == 7 || i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Cancellation wins over cell errors.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = DoErr(ctx, nil, 10, 4, func(i int) (int, error) { return 0, boom })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestLimiterBoundsConcurrentSweeps runs two sweeps against one width-2
// budget and asserts the observed peak concurrency never exceeds it, even
// though each sweep alone asks for 4 workers.
func TestLimiterBoundsConcurrentSweeps(t *testing.T) {
	lim := NewLimiter(2)
	var inFlight, peak atomic.Int64
	cell := func(i int) int {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		// Spin briefly so overlapping cells actually overlap.
		for j := 0; j < 10_000; j++ {
			_ = j
		}
		inFlight.Add(-1)
		return i
	}
	var wg sync.WaitGroup
	wg.Add(2)
	for s := 0; s < 2; s++ {
		go func() {
			defer wg.Done()
			if _, err := Do(context.Background(), lim, 50, 4, cell); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > int64(lim.Width()) {
		t.Errorf("peak concurrency %d exceeded budget %d", p, lim.Width())
	}
	if lim.InUse() != 0 {
		t.Errorf("%d slots leaked", lim.InUse())
	}
}

func TestLimiterDefaultsAndCaps(t *testing.T) {
	if w := NewLimiter(0).Width(); w != DefaultParallel() {
		t.Errorf("zero-width limiter = %d, want DefaultParallel", w)
	}
	// parallel is capped at the budget width: with width 1 the sweep is
	// effectively serial and therefore ordered.
	var order []int
	var mu sync.Mutex
	_, err := Do(context.Background(), NewLimiter(1), 20, 8, func(i int) int {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		return i
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("width-1 budget ran out of order: %v", order)
		}
	}
}
