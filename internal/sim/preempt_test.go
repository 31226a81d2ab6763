package sim

import (
	"testing"

	"ctxback/internal/isa"
	"ctxback/internal/trace"
)

// naiveRuntime is a minimal liveness-blind technique used to validate the
// preemption engine itself: save every register, EXEC/VCC/SCC and the LDS
// share; restore all of it and jump back. It decodes each routine when
// asked, and never instruments a kernel.
type naiveRuntime struct{}

func (naiveRuntime) Name() string { return "naive" }

func (naiveRuntime) PhaseNames() trace.PhaseNames { return trace.DefaultPhaseNames() }

func (naiveRuntime) Instruments(prog *isa.Program) bool { return false }

func (naiveRuntime) PreemptRoutine(w *Warp) []isa.Decoded {
	var r []isa.Instruction
	for i := 0; i < w.Prog.NumVRegs; i++ {
		r = append(r, isa.Instruction{Op: isa.CtxSaveV, Srcs: [isa.MaxSrcs]isa.Operand{isa.R(isa.V(i))}, Imm0: int32(i)})
	}
	for i := 0; i < w.Prog.NumSRegs; i++ {
		r = append(r, isa.Instruction{Op: isa.CtxSaveS, Srcs: [isa.MaxSrcs]isa.Operand{isa.R(isa.S(i))}, Imm0: int32(i)})
	}
	for _, sp := range []isa.Reg{isa.Exec, isa.VCC, isa.SCC} {
		r = append(r, isa.Instruction{Op: isa.CtxSaveSpec, Srcs: [isa.MaxSrcs]isa.Operand{isa.R(sp)}, Imm0: int32(sp.Index)})
	}
	if w.Prog.LDSBytes > 0 {
		r = append(r, isa.Instruction{Op: isa.CtxSaveLDS})
	}
	r = append(r,
		isa.Instruction{Op: isa.CtxSavePC, Target: w.PC},
		isa.Instruction{Op: isa.CtxExit},
	)
	return isa.DecodeStream(r, len(w.VRegs), len(w.SRegs))
}

func (naiveRuntime) ResumeRoutine(w *Warp) ([]isa.Decoded, *SavedContext) {
	var r []isa.Instruction
	for i := 0; i < w.Prog.NumVRegs; i++ {
		r = append(r, isa.Instruction{Op: isa.CtxLoadV, Dst: isa.V(i), Imm0: int32(i)})
	}
	for i := 0; i < w.Prog.NumSRegs; i++ {
		r = append(r, isa.Instruction{Op: isa.CtxLoadS, Dst: isa.S(i), Imm0: int32(i)})
	}
	for _, sp := range []isa.Reg{isa.Exec, isa.VCC, isa.SCC} {
		r = append(r, isa.Instruction{Op: isa.CtxLoadSpec, Dst: sp, Imm0: int32(sp.Index)})
	}
	if w.Prog.LDSBytes > 0 {
		r = append(r, isa.Instruction{Op: isa.CtxLoadLDS})
	}
	r = append(r, isa.Instruction{Op: isa.CtxResume, Target: w.ctx.PC})
	return isa.DecodeStream(r, len(w.VRegs), len(w.SRegs)), nil
}

func (naiveRuntime) Hook(w *Warp, pc int) ([]isa.Decoded, *SavedContext) { return nil, nil }

// sumKernel computes, per lane: out[gid] = sum_{i=1..n} i + lane, looping
// n times so there is plenty of execution to preempt in the middle of.
func sumKernel(t *testing.T) *isa.Program {
	t.Helper()
	p, err := isa.Assemble(`
.kernel sum
.vregs 6
.sregs 16
  ; s0 = loop count, s1 = out base (bytes), s2 = flat warp id
  v_laneid v0
  v_mov v1, 0
  s_mov s3, s1
loop:
  v_add v1, v1, s0
  s_sub s0, s0, 1
  s_cmp_gt s0, 0
  s_cbranch_scc1 loop
  v_add v1, v1, v0
  s_shl s4, s2, 8      ; warp id * 64 lanes * 4 bytes
  s_add s4, s4, s3
  v_shl v2, v0, 2 !noovf
  v_add v2, v2, s4
  v_gstore v2, v1, 0
  s_endpgm
`)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func launchSum(t *testing.T, d *Device, loops, numWarps int) *Launch {
	t.Helper()
	l, err := d.Launch(LaunchSpec{
		Prog: sumKernel(t), NumBlocks: numWarps, WarpsPerBlock: 1,
		Setup: func(w *Warp) {
			w.SRegs[0] = uint64(loops)
			w.SRegs[1] = 4096
			w.SRegs[2] = uint64(w.ID)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func checkSum(t *testing.T, d *Device, loops, numWarps int) {
	t.Helper()
	want := uint32(loops * (loops + 1) / 2)
	for wid := 0; wid < numWarps; wid++ {
		for l := 0; l < isa.WarpSize; l++ {
			got := d.Mem.Load(1024 + wid*isa.WarpSize + l)
			if got != want+uint32(l) {
				t.Fatalf("warp %d lane %d: got %d, want %d", wid, l, got, want+uint32(l))
			}
		}
	}
}

func TestPreemptResumeRoundTrip(t *testing.T) {
	const loops, warps = 400, 4
	d := mustNewDevice(TestConfig())
	launchSum(t, d, loops, warps)

	// Run partway, then preempt SM 0.
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
	if !ep.Saved() {
		t.Fatal("episode never saved")
	}
	if ep.PreemptLatencyCycles() <= 0 {
		t.Errorf("preempt latency = %d", ep.PreemptLatencyCycles())
	}
	if ep.SavedBytes() == 0 {
		t.Error("no context bytes saved")
	}

	// Victim warps must hold their PCs mid-kernel.
	for _, v := range ep.Victims {
		if v.State != WarpPreempted {
			t.Errorf("victim %d state = %v", v.ID, v.State)
		}
		if v.preemptRec.PCAtSignal <= 0 {
			t.Errorf("victim %d preempted at pc %d", v.ID, v.preemptRec.PCAtSignal)
		}
	}

	if err := d.Resume(ep); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if !ep.Finished() {
		t.Fatal("episode never finished resuming")
	}
	if ep.ResumeCycles() <= 0 {
		t.Errorf("resume cycles = %d", ep.ResumeCycles())
	}
	checkSum(t, d, loops, warps)
}

func TestPreemptMatchesGoldenRun(t *testing.T) {
	const loops, warps = 300, 2
	// Golden: uninterrupted run.
	golden := mustNewDevice(TestConfig())
	launchSum(t, golden, loops, warps)
	if err := golden.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	// Preempted run.
	d := mustNewDevice(TestConfig())
	launchSum(t, d, loops, warps)
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
	if err := d.Resume(ep); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if i := golden.Mem.Diff(d.Mem); i >= 0 {
		t.Fatalf("mem[%d]: golden %d vs preempted %d", i, golden.Mem.Load(i), d.Mem.Load(i))
	}
}

func TestPreemptDuringBarrierWait(t *testing.T) {
	// Warp 0 reaches the barrier quickly; warp 1 loops first. Preempt
	// while warp 0 waits: both must save, resume and complete.
	prog := mustAsm(t, `
.kernel barwait
.vregs 4
.sregs 16
.lds 512
  s_cmp_eq s0, 1
  s_cbranch_scc0 fast
  s_mov s1, 200
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
  s_shl s2, s0, 2
  v_mov v0, s2
  v_gstore v0, v3, 0
  s_endpgm
`)
	d := mustNewDevice(TestConfig())
	_, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 1, WarpsPerBlock: 2, Setup: func(w *Warp) {
		w.SRegs[0] = uint64(w.WarpInBlk)
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Let warp 0 arrive at the barrier.
	if err := d.RunUntil(func() bool { return d.Now() > 60 }, 1_000_000); err != nil {
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
	if d.Mem.Load(0) != 42 || d.Mem.Load(1) != 42 {
		t.Errorf("mem = %d,%d want 42,42", d.Mem.Load(0), d.Mem.Load(1))
	}
}

func TestPreemptErrors(t *testing.T) {
	d := mustNewDevice(TestConfig())
	if _, err := d.Preempt(99, naiveRuntime{}); err == nil {
		t.Error("bad SM id must error")
	}
	if _, err := d.Preempt(0, naiveRuntime{}); err == nil {
		t.Error("preempting an idle SM must error")
	}
	launchSum(t, d, 50, 2)
	ep, err := d.Preempt(0, naiveRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Resume(ep); err == nil {
		t.Error("resume before saved must error")
	}
	if _, err := d.Preempt(0, naiveRuntime{}); err == nil {
		t.Error("double preempt must error")
	}
}

func TestPreemptFreesSMForOtherKernel(t *testing.T) {
	const loops, warps = 400, 2
	d := mustNewDevice(TestConfig())
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
	// Launch a latency-sensitive kernel pinned to the freed SM.
	ls := mustAsm(t, `
.kernel ls
.vregs 4
.sregs 16
  v_mov v0, 7
  v_gstore v1, v0, 0
  s_endpgm
`)
	lsl, err := d.Launch(LaunchSpec{Prog: ls, NumBlocks: 1, WarpsPerBlock: 1, SMFilter: []int{0},
		Setup: func(w *Warp) {
			for l := 0; l < isa.WarpSize; l++ {
				w.VRegs[1][l] = uint32(l * 4)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunUntil(lsl.Done, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if !lsl.Done() {
		t.Fatal("latency-sensitive kernel never ran on the freed SM")
	}
	if err := d.Resume(ep); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	checkSum(t, d, loops, warps)
	if d.Mem.Load(0) != 7 {
		t.Errorf("ls kernel output = %d", d.Mem.Load(0))
	}
}
