package sched

import (
	"reflect"
	"testing"

	"ctxback/internal/preempt"
)

// TestPauseWindowEquivalence: driving the scheduler in small runTo
// windows must be byte-identical to one uninterrupted run — the same
// report and decision log, final clock, device counters and memory.
func TestPauseWindowEquivalence(t *testing.T) {
	jobs, err := GenTrace(TraceConfig{Seed: 7, NumJobs: 30, NumTenants: 4, MeanGapCycles: 1500})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testSchedConfig()
	cfg.Dev.NumSMs = 2
	cfg.Dev.GlobalMemBytes = 256 << 20

	one, oneAll, err := newScheduler(cfg, preempt.CTXBack, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := one.run(oneAll); err != nil {
		t.Fatal(err)
	}

	win, winAll, err := newScheduler(cfg, preempt.CTXBack, jobs)
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
	if err := win.verify(winAll); err != nil {
		t.Fatalf("windowed run verify: %v", err)
	}

	a, b := one.result(oneAll), win.result(winAll)
	if len(a.Events) == 0 {
		t.Fatal("the uninterrupted run logged no events")
	}
	if ra, rb := a.Render()+a.EventLog(), b.Render()+b.EventLog(); ra != rb {
		t.Fatalf("windowed run diverged:\n--- one\n%s--- windowed\n%s", ra, rb)
	}
	if one.d.Now() != win.d.Now() {
		t.Errorf("final clock %d windowed, %d uninterrupted", win.d.Now(), one.d.Now())
	}
	if !reflect.DeepEqual(one.d.Stats, win.d.Stats) {
		t.Errorf("device stats differ:\n one      %+v\n windowed %+v", one.d.Stats, win.d.Stats)
	}
	if i := one.d.Mem.Diff(win.d.Mem); i >= 0 {
		t.Errorf("memory differs first at word %d", i)
	}
}
