// Package pool is the bounded fan-out primitive behind the parallel
// evaluation engine: it runs independent work items on a fixed number of
// worker goroutines and collects results by index, so callers get
// byte-identical output regardless of the worker count or goroutine
// scheduling. The first error cancels the shared context, which stops
// workers from starting further items; a worker panic is recovered into a
// *resilience.PanicError carrying the stack, never a process crash.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"nsync/internal/obs"
	"nsync/internal/resilience"
)

// queueLatency measures, per work item, how long the item waited between Map
// being called and a worker picking it up — the fan-out queueing delay (see
// DESIGN.md §10). Only the parallel path reports; the serial fast path has
// no queue. panicsRecovered counts worker panics converted to errors.
var (
	queueLatency    = obs.GetTimer("pool.queue_latency")
	panicsRecovered = obs.GetCounter("pool.panics_recovered")
)

// Resolve maps a worker-count setting to a concrete pool size: values < 1
// mean "one worker per available CPU" (runtime.GOMAXPROCS(0)).
func Resolve(workers int) int {
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Map applies f to every item on at most workers goroutines (workers < 1
// means GOMAXPROCS) and returns the results in item order. Work items are
// claimed in index order, but may complete in any order; out[i] always
// holds f's result for items[i], so the output is deterministic for
// deterministic f. The first error observed cancels ctx for the remaining
// calls; results computed before the failure are discarded. When several
// in-flight items fail, the error of the lowest-indexed one is returned —
// a deterministic winner regardless of which worker lost the race. A panic
// inside f is recovered into a *resilience.PanicError and treated as that
// item's error.
func Map[T, R any](ctx context.Context, workers int, items []T, f func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	n := len(items)
	if n == 0 {
		return nil, ctx.Err()
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	out := make([]R, n)

	// call runs one item with panic isolation.
	call := func(ctx context.Context, i int) (r R, err error) {
		defer func() {
			if rec := recover(); rec != nil {
				panicsRecovered.Inc()
				err = resilience.AsPanicError(rec)
			}
		}()
		return f(ctx, i, items[i])
	}

	if workers == 1 {
		// Serial fast path: no goroutines, same cancellation and panic
		// semantics.
		for i := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := call(ctx, i)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	enqueued := queueLatency.Start() // zero when metrics are disabled
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		firstIdx int
	)
	// record notes item i's failure and cancels the pool. The lowest index
	// wins ties: later, lower-indexed in-flight items may still fail after
	// the cancel, and their error replaces a higher-indexed one so the
	// caller sees the same error at any worker count.
	record := func(i int, err error) {
		errMu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		errMu.Unlock()
		cancel()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				queueLatency.Stop(enqueued)
				r, err := call(ctx, i)
				if err != nil {
					record(i, err)
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, ctx.Err()
}
