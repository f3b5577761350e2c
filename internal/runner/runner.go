// Package runner executes batches of independent work items
// concurrently. Every simcluster.Run call is a self-contained,
// seed-deterministic event loop with no shared mutable state, so a batch
// of points parallelizes perfectly: the runner farms the points out to a
// bounded pool of workers that pull work from a shared queue (idle
// workers "steal" whatever point is next, so uneven point costs —
// high-load points simulate more events than low-load ones — still load
// balance), while results land in the slice slot of their input index.
// The output is therefore byte-identical to sequential execution at any
// parallelism level.
//
// The pool is generic: Execute runs any items through any executor
// (the harness uses it to run Scenario points on a pluggable Backend).
package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options tune one batch execution.
type Options struct {
	// Parallelism bounds how many items run concurrently. Zero or
	// negative means runtime.GOMAXPROCS(0); 1 degenerates to in-place
	// sequential execution. The value never affects results, only wall
	// time.
	Parallelism int

	// OnProgress, when non-nil, is invoked after each item finishes
	// with the number of completed items and the batch size. Calls are
	// serialized, and done is strictly increasing, but items complete
	// out of input order.
	OnProgress func(done, total int)
}

// PointError records the failure of one item of a batch. Batch errors
// returned by Execute wrap one PointError per failed item (via
// errors.Join), so callers can recover the input index of every failure
// with errors.As or by walking the joined tree.
type PointError struct {
	// Index is the position of the failed item in the input slice.
	Index int
	Err   error
}

func (e *PointError) Error() string { return fmt.Sprintf("point %d: %v", e.Index, e.Err) }

func (e *PointError) Unwrap() error { return e.Err }

// Execute runs every item through exec on the bounded worker pool and
// returns the results in input order. All items run even when some
// fail; the returned error joins one PointError per failure (nil when
// every item succeeded), and the result slots of failed items are zero
// values. exec must be safe for concurrent calls.
func Execute[T, R any](items []T, opts Options, exec func(T) (R, error)) ([]R, error) {
	n := len(items)
	if n == 0 {
		return nil, nil
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	progress := func() {}
	if opts.OnProgress != nil {
		var mu sync.Mutex
		done := 0
		progress = func() {
			mu.Lock()
			done++
			opts.OnProgress(done, n)
			mu.Unlock()
		}
	}

	results := make([]R, n)
	errs := make([]error, n)
	if workers == 1 {
		for i, item := range items {
			results[i], errs[i] = exec(item)
			progress()
		}
	} else {
		// next is the shared work queue head: each worker claims the
		// next unclaimed item, so fast workers drain the tail left by
		// slow (expensive) items.
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					results[i], errs[i] = exec(items[i])
					progress()
				}
			}()
		}
		wg.Wait()
	}

	var failures []error
	for i, err := range errs {
		if err != nil {
			failures = append(failures, &PointError{Index: i, Err: err})
		}
	}
	return results, errors.Join(failures...)
}
