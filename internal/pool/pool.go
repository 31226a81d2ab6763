// Package pool is the one worker pool. The harness's experiments, the
// generated-corpus sweep and the serve loop's device advance fan their
// independent jobs out through Run, under one CPU-budget rule: a worker
// count of 0 means one worker per GOMAXPROCS.
package pool

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Run runs job(0), ..., job(n-1) on min(workers, n) goroutines, workers
// 0 meaning GOMAXPROCS. With one worker it runs them in order on the
// calling goroutine and stops at the first error. It returns the first
// error in index order, not completion order, so failures are as
// deterministic as results. A panicking job becomes an error carrying
// its stack: a crash must surface as a failure, never kill the process
// or leave its slot silently zero.
func Run(workers, n int, job func(i int) error) error {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			if err := safe(job, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = safe(job, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// safe runs job(i), turning a panic into an error.
func safe(job func(i int) error, i int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("pool: job %d panicked: %v\n%s", i, p, debug.Stack())
		}
	}()
	return job(i)
}
