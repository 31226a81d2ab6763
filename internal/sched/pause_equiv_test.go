package sched

import (
	"math"
	"testing"

	"ctxback/internal/preempt"
)

// TestPauseWindowEquivalence: driving the scheduler in small runTo
// windows must be byte-identical to one uninterrupted run.
func TestPauseWindowEquivalence(t *testing.T) {
	jobs, err := GenTrace(TraceConfig{Seed: 7, NumJobs: 30, NumTenants: 4, MeanGapCycles: 1500})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testSchedConfig()
	cfg.Dev.NumSMs = 2
	cfg.Dev.GlobalMemBytes = 256 << 20

	one, err := newScheduler(cfg, preempt.CTXBack, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := one.run(); err != nil {
		t.Fatal(err)
	}

	win, err := newScheduler(cfg, preempt.CTXBack, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var stop int64
	for {
		stop += 2000
		done, err := win.runTo(stop)
		if err != nil {
			t.Fatalf("windowed runTo at %d: %v", stop, err)
		}
		if done {
			break
		}
		if stop > 500_000_000 {
			t.Fatal("windowed run never finished")
		}
	}
	if err := win.verify(); err != nil {
		t.Fatalf("windowed run verify: %v", err)
	}
	_ = math.MaxInt64
}
