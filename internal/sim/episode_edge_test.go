package sim

import (
	"errors"
	"strings"
	"testing"
)

// Edge cases of the episode state machine: signals raised twice, resume
// ordering violations, barrier-entangled victims, and episodes that
// outlive their launch's other warps.

func TestDoublePreemptWhileSaving(t *testing.T) {
	d := mustNewDevice(TestConfig())
	launchSum(t, d, 300, 2)
	if err := d.RunUntil(func() bool { return d.Now() > 200 }, 1_000_000); err != nil {
		t.Fatal(err)
	}
	ep, err := d.Preempt(0, naiveRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	// Signal raised again while the first episode is mid-save.
	if _, err := d.Preempt(0, naiveRuntime{}); err == nil {
		t.Error("second signal during save must error")
	}
	if err := d.RunUntil(ep.Saved, 10_000_000); err != nil {
		t.Fatal(err)
	}
	// And again after all contexts saved but before resume.
	if _, err := d.Preempt(0, naiveRuntime{}); err == nil {
		t.Error("second signal on a saved-but-unresumed SM must error")
	}
	if err := d.Resume(ep); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	checkSum(t, d, 300, 2)
}

func TestResumeBeforeAllSaved(t *testing.T) {
	d := mustNewDevice(TestConfig())
	launchSum(t, d, 300, 2)
	if err := d.RunUntil(func() bool { return d.Now() > 200 }, 1_000_000); err != nil {
		t.Fatal(err)
	}
	ep, err := d.Preempt(0, naiveRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	// Immediately: no victim has even entered its routine.
	if err := d.Resume(ep); err == nil {
		t.Fatal("resume with zero contexts saved must error")
	} else if !strings.Contains(err.Error(), "before all contexts saved") {
		t.Errorf("unexpected error: %v", err)
	}
	// Partially saved: run until the first victim exits, not all.
	if err := d.RunUntil(func() bool { return ep.savedCount > 0 && !ep.Saved() }, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if ep.savedCount > 0 && !ep.Saved() {
		if err := d.Resume(ep); err == nil {
			t.Error("resume with partial contexts saved must error")
		}
	}
	if err := d.RunUntil(ep.Saved, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if err := d.Resume(ep); err != nil {
		t.Fatal(err)
	}
	// A second resume of the same episode must be rejected.
	if err := d.Resume(ep); err == nil {
		t.Error("double resume must error")
	}
	if err := d.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	checkSum(t, d, 300, 2)
}

func TestPreemptWithVictimsParkedAtBarrier(t *testing.T) {
	// Two blocks of two warps each on SM 0 (TestConfig allows 8 warps/SM
	// and fills SM 0 first). Within each block, warp 0 races to the
	// barrier and parks; warp 1 spins first. The signal therefore finds
	// half the victims in barrier wait — they must be rewound onto the
	// barrier instruction, saved, and re-arrive at it after resume.
	prog := mustAsm(t, `
.kernel barpark
.vregs 4
.sregs 16
.lds 512
  s_cmp_eq s0, 1
  s_cbranch_scc0 fast
  s_mov s1, 400
spin:
  s_sub s1, s1, 1
  s_cmp_gt s1, 0
  s_cbranch_scc1 spin
fast:
  v_mov v0, s0
  v_shl v1, v0, 2 !noovf
  v_mov v2, 42
  v_lstore v1, v2, 0
  s_barrier
  v_lload v3, v1, 0
  s_shl s2, s3, 2
  v_mov v0, s2
  v_gstore v0, v3, 0
  s_endpgm
`)
	d := mustNewDevice(TestConfig())
	if _, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 2, WarpsPerBlock: 2, SMFilter: []int{0},
		Setup: func(w *Warp) {
			w.SRegs[0] = uint64(w.WarpInBlk)
			w.SRegs[3] = uint64(w.ID)
		}}); err != nil {
		t.Fatal(err)
	}
	// Let the fast warps reach and park at the barrier.
	if err := d.RunUntil(func() bool { return d.Now() > 80 }, 1_000_000); err != nil {
		t.Fatal(err)
	}
	parked := 0
	for _, w := range d.SMs[0].Warps {
		if w.barrierWait {
			parked++
		}
	}
	if parked == 0 {
		t.Fatal("test setup: no warp parked at the barrier before the signal")
	}
	ep, err := d.Preempt(0, naiveRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	// Barrier-parked victims must have been rewound to the barrier
	// instruction so their routine saves a re-arriving context.
	for _, w := range ep.Victims {
		if w.barrierWait {
			t.Errorf("victim %d still flagged barrierWait after the signal", w.ID)
		}
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
	if !ep.Finished() {
		t.Fatal("episode never finished")
	}
	for wid := 0; wid < 4; wid++ {
		if got := d.Mem.Load(wid); got != 42 {
			t.Errorf("mem[%d] = %d, want 42", wid, got)
		}
	}
}

func TestPreemptAfterAllWarpsDone(t *testing.T) {
	d := mustNewDevice(TestConfig())
	l := launchSum(t, d, 50, 2)
	if err := d.RunUntil(l.Done, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Preempt(0, naiveRuntime{}); err == nil {
		t.Error("preempting an SM whose warps all finished must error")
	} else if !errors.Is(err, ErrDrained) {
		t.Errorf("drained SM must return ErrDrained, got: %v", err)
	}
}

func TestResumeAfterRestOfLaunchFinished(t *testing.T) {
	// Preempt SM 0 mid-run, then let every warp on the other SMs run to
	// completion before resuming: the episode must still resume its
	// victims and the launch must drain to a correct output.
	const loops, warps = 300, 4 // 2 SMs in TestConfig -> 2 warps each
	d := mustNewDevice(TestConfig())
	l := launchSum(t, d, loops, warps)
	if err := d.RunUntil(func() bool { return d.Now() > 200 }, 1_000_000); err != nil {
		t.Fatal(err)
	}
	ep, err := d.Preempt(0, naiveRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunUntil(ep.Saved, 10_000_000); err != nil {
		t.Fatal(err)
	}
	// Drain the rest of the launch: only the preempted victims remain.
	rest := func() bool { return l.doneWarps == warps-len(ep.Victims) }
	if err := d.RunUntil(rest, 100_000_000); err != nil {
		t.Fatal(err)
	}
	if l.Done() {
		t.Fatal("launch reported done with victims still preempted")
	}
	if err := d.Resume(ep); err != nil {
		t.Fatal(err)
	}
	if err := d.RunUntil(l.Done, 100_000_000); err != nil {
		t.Fatal(err)
	}
	if !ep.Finished() {
		t.Fatal("episode never finished")
	}
	checkSum(t, d, loops, warps)
}
