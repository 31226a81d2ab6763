package sim

import (
	"bytes"
	"errors"
	"testing"

	"ctxback/internal/trace"
)

// TestPreemptDrainedSMReturnsErrDrained pins the drained-SM contract: a
// preemption aimed at an SM with no running kernel warps — here SM 0,
// legitimately empty because the launch is pinned to SM 1 — reports the
// typed ErrDrained sentinel, not a generic error, while work elsewhere on
// the device is still in flight.
func TestPreemptDrainedSMReturnsErrDrained(t *testing.T) {
	d := mustNewDevice(TestConfig())
	l, err := d.Launch(LaunchSpec{
		Prog: sumKernel(t), NumBlocks: 2, WarpsPerBlock: 1,
		Setup: func(w *Warp) {
			w.SRegs[0] = 400
			w.SRegs[1] = 4096
			w.SRegs[2] = uint64(w.ID)
		},
		SMFilter: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunUntil(func() bool { return d.Now() > 200 }, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if l.Done() {
		t.Fatal("launch finished before the preemption attempt; grow the loop count")
	}
	_, err = d.Preempt(0, naiveRuntime{})
	if err == nil {
		t.Fatal("preempting an empty SM must error")
	}
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("want ErrDrained, got: %v", err)
	}
	// A drained signal must leave the device untouched: the launch still
	// completes and SM 1 is preemptable.
	if _, err := d.Preempt(1, naiveRuntime{}); err != nil {
		t.Fatalf("SM 1 has running warps, preempt failed: %v", err)
	}
}

// TestEpisodePhasesReconcile drives a full preempt/resume round trip with
// a recorder attached and asserts the tentpole invariant: the four-phase
// breakdown sums exactly to the two headline latencies, and the exported
// Chrome trace is valid and cycle-monotone.
func TestEpisodePhasesReconcile(t *testing.T) {
	const loops, warps = 400, 4
	d := mustNewDevice(TestConfig())
	rec := trace.NewRecorder()
	d.AttachRecorder(rec)
	launchSum(t, d, loops, warps)
	if err := d.RunUntil(func() bool { return d.Now() > 300 }, 1_000_000); err != nil {
		t.Fatal(err)
	}
	ep, err := d.Preempt(0, naiveRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunUntil(ep.Saved, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if err := d.Resume(ep); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	checkSum(t, d, loops, warps)

	ph := ep.Phases()
	for name, v := range map[string]int64{
		"drain": ph.Drain, "save": ph.Save, "restore": ph.Restore, "replay": ph.Replay,
	} {
		if v < 0 {
			t.Errorf("phase %s negative: %d", name, v)
		}
	}
	if got := ph.Drain + ph.Save; got != ep.PreemptLatencyCycles() {
		t.Errorf("drain+save = %d, want PreemptLatencyCycles = %d", got, ep.PreemptLatencyCycles())
	}
	if got := ph.Restore + ph.Replay; got != ep.ResumeCycles() {
		t.Errorf("restore+replay = %d, want ResumeCycles = %d", got, ep.ResumeCycles())
	}
	if ep.Technique() != "naive" {
		t.Errorf("episode technique = %q", ep.Technique())
	}

	evs := rec.Events()
	if len(evs) == 0 {
		t.Fatal("recorder captured no events")
	}
	var sawSignal, sawResume, sawMem, sawWarpSave int
	for i, ev := range evs {
		if i > 0 && ev.Cycle < evs[i-1].Cycle {
			t.Fatalf("events not cycle-monotone at %d: %+v", i, ev)
		}
		switch {
		case ev.Name == "preempt-signal":
			sawSignal++
		case ev.Name == "resume-start":
			sawResume++
		case ev.Cat == trace.CatMem:
			sawMem++
		case ev.Cat == trace.CatWarp && ev.Name == "save":
			sawWarpSave++
		}
	}
	if sawSignal != 1 || sawResume != 1 {
		t.Errorf("signal/resume instants = %d/%d, want 1/1", sawSignal, sawResume)
	}
	if sawMem == 0 {
		t.Error("no context-path memory events recorded")
	}
	if want := len(ep.Victims); sawWarpSave != want {
		t.Errorf("warp save spans = %d, want %d (one per victim)", sawWarpSave, want)
	}

	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	if n, err := trace.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	} else if n != len(evs) {
		t.Errorf("chrome trace has %d events, recorder has %d", n, len(evs))
	}
}

// TestTracingDoesNotPerturbSimulation runs the identical scenario with
// and without a recorder and requires bit-identical simulation results —
// the zero-overhead-when-disabled contract's stronger sibling: recording
// is observation only.
func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	const loops, warps = 300, 4
	run := func(withRec bool) (*Device, *Episode) {
		d := mustNewDevice(TestConfig())
		if withRec {
			d.AttachRecorder(trace.NewRecorder())
		}
		launchSum(t, d, loops, warps)
		if err := d.RunUntil(func() bool { return d.Now() > 300 }, 1_000_000); err != nil {
			t.Fatal(err)
		}
		ep, err := d.Preempt(0, naiveRuntime{})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.RunUntil(ep.Saved, 10_000_000); err != nil {
			t.Fatal(err)
		}
		if err := d.Resume(ep); err != nil {
			t.Fatal(err)
		}
		if err := d.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		return d, ep
	}
	dOff, epOff := run(false)
	dOn, epOn := run(true)
	if dOff.Now() != dOn.Now() {
		t.Errorf("final cycle differs: off=%d on=%d", dOff.Now(), dOn.Now())
	}
	if dOff.Stats != dOn.Stats {
		t.Errorf("device stats differ:\noff: %+v\non:  %+v", dOff.Stats, dOn.Stats)
	}
	if epOff.PreemptLatencyCycles() != epOn.PreemptLatencyCycles() ||
		epOff.ResumeCycles() != epOn.ResumeCycles() {
		t.Errorf("episode latencies differ: off=(%d,%d) on=(%d,%d)",
			epOff.PreemptLatencyCycles(), epOff.ResumeCycles(),
			epOn.PreemptLatencyCycles(), epOn.ResumeCycles())
	}
	if dOff.Mem.Diff(dOn.Mem) >= 0 {
		t.Error("device memory differs between traced and untraced runs")
	}
	if epOff.Phases() != epOn.Phases() {
		t.Errorf("phase breakdowns differ: off=%+v on=%+v", epOff.Phases(), epOn.Phases())
	}
}
