// Package sweep shards independent simulation runs across a worker pool.
//
// Experiment sweeps (seeds × loads × fault configurations) are embarrassingly
// parallel: every cell builds its own Machine and Engine and shares no
// mutable state with its neighbours. This package supplies the one primitive
// they all need — "run fn for i in [0,n) on up to `parallel` goroutines and
// give me the results in index order" — so the experiment code stays a plain
// loop body.
//
// Determinism: results are written into a pre-sized slice at the run's own
// index, never appended in completion order, so the merged output of a sweep
// is identical for every parallelism level (including 1). Each fn invocation
// must derive any randomness from its index or an explicit per-run seed; the
// golden tests in internal/experiments pin that property end to end.
package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultParallel is the worker-pool width used when the caller passes a
// non-positive value: the number of CPUs the process may use.
func DefaultParallel() int { return runtime.GOMAXPROCS(0) }

// Limiter is a concurrency budget shared between sweeps. A server running
// several jobs at once hands every sweep the same Limiter so the *sum* of
// live cell executions across all jobs never exceeds the budget, no matter
// how many sweeps are in flight. A nil Limiter means "no shared budget":
// a sweep is then bounded only by its own parallel argument.
//
// Tokens are held per cell (acquired immediately before fn runs, released
// right after), never across nested sweeps, so a job that fans out inner
// sweeps cannot deadlock against its own budget.
type Limiter struct {
	sem chan struct{}
}

// NewLimiter creates a budget of width worker slots (<= 0 means
// DefaultParallel()).
func NewLimiter(width int) *Limiter {
	if width <= 0 {
		width = DefaultParallel()
	}
	return &Limiter{sem: make(chan struct{}, width)}
}

// Width reports the budget's total worker slots.
func (l *Limiter) Width() int { return cap(l.sem) }

// acquire blocks until a slot or cancellation. It reports false on cancel.
func (l *Limiter) acquire(done <-chan struct{}) bool {
	select {
	case l.sem <- struct{}{}:
		return true
	case <-done:
		return false
	}
}

func (l *Limiter) release() { <-l.sem }

// Do runs fn(0..n-1) on min(parallel, n) workers and returns the n results
// in index order. parallel <= 0 means DefaultParallel(); parallel == 1 with
// no Limiter runs serially on the calling goroutine. The context (nil for
// none) cancels the sweep between cells: cells already running finish,
// unstarted indices keep their zero value and Do returns ctx.Err(). A
// non-nil Limiter gates every cell execution by a budget shared with other
// sweeps, and caps parallel at its width. Results are merged by index, so a
// completed sweep is byte-identical at any parallelism and any budget width.
func Do[R any](ctx context.Context, lim *Limiter, n, parallel int, fn func(i int) R) ([]R, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]R, n)
	if parallel <= 0 {
		parallel = DefaultParallel()
	}
	if lim != nil && parallel > lim.Width() {
		parallel = lim.Width()
	}
	if parallel > n {
		parallel = n
	}
	done := ctx.Done()
	if parallel == 1 && lim == nil {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return results, ctx.Err()
			default:
			}
			results[i] = fn(i)
		}
		return results, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(parallel)
	for w := 0; w < parallel; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if lim != nil {
					if !lim.acquire(done) {
						return
					}
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					if lim != nil {
						lim.release()
					}
					return
				}
				results[i] = fn(i)
				if lim != nil {
					lim.release()
				}
			}
		}()
	}
	wg.Wait()
	return results, ctx.Err()
}

// DoErr is Do for fallible runs. Cancellation wins over cell errors (a
// canceled sweep reports ctx.Err()); otherwise the first error by run index
// (not completion order) is returned, so the reported error is the same no
// matter how the schedule interleaved. Every result is returned either way.
func DoErr[R any](ctx context.Context, lim *Limiter, n, parallel int, fn func(i int) (R, error)) ([]R, error) {
	type outcome struct{ err error }
	errs := make([]outcome, n)
	results, ctxErr := Do(ctx, lim, n, parallel, func(i int) R {
		r, err := fn(i)
		errs[i].err = err
		return r
	})
	if ctxErr != nil {
		return results, ctxErr
	}
	for i := range errs {
		if errs[i].err != nil {
			return results, errs[i].err
		}
	}
	return results, nil
}
