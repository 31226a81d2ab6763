package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
)

// diffRun is one device being driven in lockstep with its twin under the
// other scheduler: the same workload, technique, and orchestration, with
// a one-slot trace ring capturing each executed instruction.
type diffRun struct {
	wl     *kernels.Workload
	d      *sim.Device
	tr     *sim.Tracer
	tech   preempt.Technique
	launch *sim.Launch
	ep     *sim.Episode
}

func newDiffRun(t *testing.T, cfg sim.Config, abbrev string, kind preempt.Kind, scan bool) *diffRun {
	t.Helper()
	wl, err := kernels.ByAbbrev(abbrev, kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	d, err := sim.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scan {
		d.UseReferenceScheduler()
	}
	tech, err := preempt.New(kind, wl.Prog)
	if err != nil {
		t.Skipf("technique unavailable: %v", err)
	}
	d.AttachRuntime(tech)
	tr := d.EnableTrace(1)
	launch, err := wl.Launch(d)
	if err != nil {
		t.Fatal(err)
	}
	return &diffRun{wl: wl, d: d, tr: tr, tech: tech, launch: launch}
}

func (r *diffRun) lastEvent() sim.TraceEvent {
	evs := r.tr.Events()
	if len(evs) == 0 {
		return sim.TraceEvent{}
	}
	return evs[len(evs)-1]
}

// lockstep steps both devices together until stop reports true on both,
// comparing every single issued instruction (cycle, SM, warp, mode, PC,
// disassembly), the clock, and the instruction count. Any divergence —
// including one device stopping, erroring, or stalling before the
// other — fails the test.
func lockstep(t *testing.T, q, s *diffRun, phase string, stop func(r *diffRun) bool) {
	t.Helper()
	const maxSteps = 5_000_000
	for step := 0; ; step++ {
		if step > maxSteps {
			t.Fatalf("%s: no convergence after %d steps", phase, maxSteps)
		}
		stopQ, stopS := stop(q), stop(s)
		if stopQ != stopS {
			t.Fatalf("%s: stop condition diverged at step %d: queue=%v scan=%v (cycles %d vs %d)",
				phase, step, stopQ, stopS, q.d.Now(), s.d.Now())
		}
		if stopQ {
			return
		}
		progQ, errQ := q.d.Step()
		progS, errS := s.d.Step()
		switch {
		case (errQ == nil) != (errS == nil):
			t.Fatalf("%s: error diverged at step %d: queue=%v scan=%v", phase, step, errQ, errS)
		case errQ != nil:
			if errQ.Error() != errS.Error() {
				t.Fatalf("%s: error text diverged at step %d:\n  queue: %v\n  scan:  %v", phase, step, errQ, errS)
			}
			t.Fatalf("%s: both schedulers errored (in lockstep, but unexpectedly): %v", phase, errQ)
		case progQ != progS:
			t.Fatalf("%s: progress diverged at step %d: queue=%v scan=%v", phase, step, progQ, progS)
		case !progQ:
			t.Fatalf("%s: both schedulers stalled before the stop condition at step %d (cycle %d)",
				phase, step, q.d.Now())
		}
		if evQ, evS := q.lastEvent(), s.lastEvent(); evQ != evS {
			t.Fatalf("%s: issued instruction diverged at step %d:\n  queue: %+v\n  scan:  %+v",
				phase, step, evQ, evS)
		}
		if q.d.Now() != s.d.Now() {
			t.Fatalf("%s: clocks diverged at step %d: queue=%d scan=%d", phase, step, q.d.Now(), s.d.Now())
		}
		if qi, si := q.d.Stats.Instructions, s.d.Stats.Instructions; qi != si {
			t.Fatalf("%s: instruction counts diverged at step %d: queue=%d scan=%d", phase, step, qi, si)
		}
	}
}

// TestReadyQueueMatchesScan pins the event-driven ready-queue scheduler
// to the retained linear-scan reference instruction-by-instruction:
// every Table I kernel under every preemption technique runs a full
// preemption episode (signal at a seeded-random cycle, save, resume,
// replay, completion) on two lockstepped devices, and every issued
// instruction, clock value, episode phase split, and the final
// architectural state must match exactly.
func TestReadyQueueMatchesScan(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short mode")
	}
	cfg := sim.TestConfig()
	wls, err := kernels.All(kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20260805))
	for _, wl := range wls {
		for _, kind := range preempt.ExtendedKinds() {
			signal := 1 + rng.Int63n(3000)
			t.Run(fmt.Sprintf("%s/%s", wl.Abbrev, kind), func(t *testing.T) {
				diffEpisode(t, cfg, wl.Abbrev, kind, signal)
			})
		}
	}
}

func diffEpisode(t *testing.T, cfg sim.Config, abbrev string, kind preempt.Kind, signal int64) {
	t.Helper()
	q := newDiffRun(t, cfg, abbrev, kind, false)
	s := newDiffRun(t, cfg, abbrev, kind, true)

	// Phase 1: run to the preemption signal.
	lockstep(t, q, s, "to-signal", func(r *diffRun) bool {
		return r.d.Now() >= signal || r.launch.Done()
	})

	if doneQ, doneS := q.launch.Done(), s.launch.Done(); doneQ != doneS {
		t.Fatalf("launch completion diverged at signal: queue=%v scan=%v", doneQ, doneS)
	} else if !doneQ {
		// Phase 2: preempt SM 0 on both; the drained race must resolve
		// identically.
		epQ, errQ := q.d.Preempt(0, q.tech)
		epS, errS := s.d.Preempt(0, s.tech)
		if (errQ == nil) != (errS == nil) ||
			(errQ != nil && errors.Is(errQ, sim.ErrDrained) != errors.Is(errS, sim.ErrDrained)) {
			t.Fatalf("Preempt outcome diverged: queue=%v scan=%v", errQ, errS)
		}
		if errQ == nil {
			q.ep, s.ep = epQ, epS
			if lq, ls := len(epQ.Victims), len(epS.Victims); lq != ls {
				t.Fatalf("victim counts diverged: queue=%d scan=%d", lq, ls)
			}
			lockstep(t, q, s, "save", func(r *diffRun) bool { return r.ep.Saved() })
			if errQ, errS := q.d.Resume(epQ), s.d.Resume(epS); (errQ == nil) != (errS == nil) {
				t.Fatalf("Resume outcome diverged: queue=%v scan=%v", errQ, errS)
			} else if errQ != nil {
				t.Fatalf("Resume failed on both: %v", errQ)
			}
			lockstep(t, q, s, "resume", func(r *diffRun) bool { return r.ep.Finished() })
			phQ, phS := epQ.Phases(), epS.Phases()
			if phQ != phS {
				t.Fatalf("episode phases diverged:\n  queue: %+v\n  scan:  %+v", phQ, phS)
			}
			if a, b := epQ.PreemptLatencyCycles(), epS.PreemptLatencyCycles(); a != b {
				t.Fatalf("preempt latency diverged: queue=%d scan=%d", a, b)
			}
			if a, b := epQ.SavedBytes(), epS.SavedBytes(); a != b {
				t.Fatalf("saved bytes diverged: queue=%d scan=%d", a, b)
			}
		}
	}

	// Phase 3: run to completion.
	lockstep(t, q, s, "completion", func(r *diffRun) bool { return r.launch.Done() })

	// Final state: identical counters, memory image, and verified output.
	if q.d.Stats != s.d.Stats {
		t.Fatalf("final device stats diverged:\n  queue: %+v\n  scan:  %+v", q.d.Stats, s.d.Stats)
	}
	if i := q.d.Mem.Diff(s.d.Mem); i >= 0 {
		t.Fatalf("device memory diverged at word %d: queue=%#x scan=%#x", i, q.d.Mem.Load(i), s.d.Mem.Load(i))
	}
	if err := q.wl.Verify(q.d); err != nil {
		t.Fatalf("queue-scheduled output failed verification: %v", err)
	}
	if err := s.wl.Verify(s.d); err != nil {
		t.Fatalf("scan-scheduled output failed verification: %v", err)
	}
}
