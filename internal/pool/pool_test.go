package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRunFirstErrorInIndexOrder: whatever order jobs finish in, Run
// returns the lowest-index job's error, at every worker count.
func TestRunFirstErrorInIndexOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		err := Run(workers, 16, func(i int) error {
			if i == 3 || i == 11 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Errorf("workers=%d: err = %v, want job 3's", workers, err)
		}
	}
}

// TestRunRunsEveryJobOnce, and runs them inline and in order with one
// worker (or one job): the serve loop's one-worker path starts no
// goroutine.
func TestRunRunsEveryJobOnce(t *testing.T) {
	for _, c := range []struct{ workers, n int }{{0, 50}, {1, 50}, {3, 50}, {8, 1}, {4, 0}} {
		var seen [50]atomic.Int32
		var order []int
		before := runtime.NumGoroutine()
		if err := Run(c.workers, c.n, func(i int) error {
			seen[i].Add(1)
			if c.workers == 1 || c.n == 1 {
				order = append(order, i)
				if g := runtime.NumGoroutine(); g > before {
					return fmt.Errorf("inline job %d ran beside %d goroutines, %d before Run", i, g, before)
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		for i := range seen {
			if want := int32(min(1, max(c.n-i, 0))); seen[i].Load() != want {
				t.Errorf("%+v: job %d ran %d times, want %d", c, i, seen[i].Load(), want)
			}
		}
		for i, j := range order {
			if i != j {
				t.Fatalf("%+v: inline order %v", c, order)
			}
		}
	}
}

// TestRunSerialStopsAtFirstError: the inline path runs no job after a
// failing one.
func TestRunSerialStopsAtFirstError(t *testing.T) {
	ran := 0
	bad := errors.New("bad")
	if err := Run(1, 10, func(i int) error {
		ran++
		if i == 2 {
			return bad
		}
		return nil
	}); err != bad || ran != 3 {
		t.Errorf("err %v after %d jobs, want bad after 3", err, ran)
	}
}
