package core

import (
	"testing"

	"ctxback/internal/cfg"
	"ctxback/internal/isa"
	"ctxback/internal/liveness"
)

func analyzeSrc(t *testing.T, src string) (*isa.Program, *liveness.Info) {
	t.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, liveness.Analyze(g)
}

// Paper Figure 2: I2 overwrites its own operand (not re-executable), but
// its result is still physical at the signal, so the relaxed condition
// restores it by saving/reloading while I0/I1/I3 re-execute.
func fig2Program(t *testing.T) (*isa.Program, *liveness.Info) {
	return analyzeSrc(t, `
.kernel fig2
.vregs 8
.sregs 16
  v_xor v3, v4, 0xF
  v_mul v1, v3, 0x7
  v_shr v0, v0, 0x2
  v_add v2, v0, v4
  v_gstore v5, v0, 0
  v_gstore v5, v1, 4
  v_gstore v5, v2, 8
  v_gstore v5, v3, 12
  s_endpgm
`)
}

func TestFig2RelaxedCondition(t *testing.T) {
	prog, live := fig2Program(t)
	const p = 4 // signal received before the first store
	plan := AnalyzeWindow(prog, live, p, 0, FeatRelaxed, nil)
	if plan == nil {
		t.Fatal("relaxed condition must make pc 0 a flashback-point of pc 4")
	}
	if plan.Status[2] != StatusReload {
		t.Errorf("I2 status = %v, want reload", plan.Status[2])
	}
	for _, i := range []int{0, 1, 3} {
		if plan.Status[i] != StatusReExec {
			t.Errorf("I%d status = %v, want re-exec", i, plan.Status[i])
		}
	}
	// Saved registers: v0 (I2's result slot), v4 and v5 (init), exec.
	if !plan.ReloadRegs[2].Has(isa.V(0)) {
		t.Errorf("v0 must be saved as I2's reloadable result: %v", plan.ReloadRegs)
	}
	if plan.InitRegs[isa.V(4)] != InitDirect || plan.InitRegs[isa.V(5)] != InitDirect {
		t.Errorf("v4/v5 must be saved directly: %v", plan.InitRegs)
	}
	// Without the relaxed condition the window is infeasible.
	if strict := AnalyzeWindow(prog, live, p, 0, 0, nil); strict != nil {
		t.Error("strict condition must reject the window (I2 not re-executable)")
	}
}

// Paper Figure 3: reverting I2 (ADD r0,r0,r3 -> SUB) at preemption
// recovers r0, making I0 and I1 re-executable; only r0 and r2 (and the
// live stores' address base) are saved.
func TestFig3RevertAtPreempt(t *testing.T) {
	prog, live := analyzeSrc(t, `
.kernel fig3
.vregs 8
.sregs 16
  v_xor v1, v0, v2
  v_mul v3, v1, v2
  v_add v0, v0, v3
  v_mov v1, 0xF
  v_gstore v5, v0, 0
  v_gstore v5, v1, 4
  v_gstore v5, v3, 8
  s_endpgm
`)
	const p = 4
	plan := AnalyzeWindow(prog, live, p, 0, FeatRelaxed|FeatRevert, nil)
	if plan == nil {
		t.Fatal("reverting must make pc 0 a flashback-point")
	}
	if len(plan.PreemptReverts) != 1 || plan.PreemptReverts[0].K != 2 {
		t.Fatalf("want exactly the revert of I2 at preemption, got %+v", plan.PreemptReverts)
	}
	if plan.PreemptReverts[0].Instr.Op != isa.VSub {
		t.Errorf("revert op = %v, want v_sub", plan.PreemptReverts[0].Instr.Op)
	}
	if plan.InitRegs[isa.V(0)] != InitRevertPreempt {
		t.Errorf("v0 source = %v, want revert@preempt", plan.InitRegs[isa.V(0)])
	}
	if plan.InitRegs[isa.V(2)] != InitDirect {
		t.Errorf("v2 source = %v, want direct", plan.InitRegs[isa.V(2)])
	}
	// All four in-between instructions re-execute; nothing is reloaded.
	if len(plan.ReloadRegs) != 0 {
		t.Errorf("no reload expected, got %v", plan.ReloadRegs)
	}
	// Without reverting, the same window needs the relaxed fallback (v0
	// saved via I2's result) — still feasible but with a bigger context.
	relaxedOnly := AnalyzeWindow(prog, live, p, 0, FeatRelaxed, nil)
	if relaxedOnly == nil {
		t.Fatal("relaxed-only window should still be feasible")
	}
	if relaxedOnly.ContextBytes < plan.ContextBytes {
		t.Errorf("revert plan (%dB) should not exceed relaxed-only plan (%dB)",
			plan.ContextBytes, relaxedOnly.ContextBytes)
	}
}

// Paper Figure 4: reverting I2 needs r2, whose at-I2 value is only
// restored by re-executing I0 — so the revert happens during resume,
// placed right after I0.
func TestFig4RevertAtResume(t *testing.T) {
	prog, live := analyzeSrc(t, `
.kernel fig4
.vregs 8
.sregs 16
  v_mul v2, v1, 0xE
  v_xor v3, v0, v2
  v_add v0, v0, v2
  v_mov v2, 0xFF
  v_gstore v5, v0, 0
  v_gstore v5, v2, 4
  v_gstore v5, v3, 8
  s_endpgm
`)
	const p = 4
	plan := AnalyzeWindow(prog, live, p, 0, FeatRelaxed|FeatRevert, nil)
	if plan == nil {
		t.Fatal("window must be feasible")
	}
	if len(plan.ResumeReverts) != 1 {
		t.Fatalf("want one resume revert, got %+v (init %v)", plan.ResumeReverts, plan.InitRegs)
	}
	rr := plan.ResumeReverts[0]
	if rr.SlotReg != isa.V(0) || int(rr.SlotVer) != 2 {
		t.Errorf("resume revert consumes (%s,v%d), want (v0,v2)", rr.SlotReg, rr.SlotVer)
	}
	if rr.Pos != 1 {
		t.Errorf("revert placed at %d, want 1 (after I0 re-executes)", rr.Pos)
	}
	if plan.InitRegs[isa.V(1)] != InitDirect {
		t.Errorf("v1 must be saved directly: %v", plan.InitRegs)
	}
	if plan.Status[0] != StatusReExec {
		t.Errorf("I0 must re-execute, got %v", plan.Status[0])
	}
}

func TestEmptyWindowEqualsLiveContext(t *testing.T) {
	prog, live := fig2Program(t)
	for pc := 0; pc < prog.Len(); pc++ {
		plan := AnalyzeWindow(prog, live, pc, pc, FeatAll, nil)
		if plan == nil {
			t.Fatalf("empty window at pc %d must always be feasible", pc)
		}
		if plan.ContextBytes != live.ContextBytes(pc) {
			t.Errorf("pc %d: empty-window context %dB != live-in context %dB",
				pc, plan.ContextBytes, live.ContextBytes(pc))
		}
		if plan.ReExecCount != 0 {
			t.Errorf("pc %d: empty window re-executes %d", pc, plan.ReExecCount)
		}
	}
}

func TestVectorRevertRequiresSameExec(t *testing.T) {
	// The ADD writes v0 under full EXEC, then EXEC is narrowed. Reverting
	// the ADD at preemption would only rewind the active lanes, so the
	// analyzer must not choose revert@preempt.
	prog, live := analyzeSrc(t, `
.kernel execrev
.vregs 8
.sregs 16
  v_add v0, v0, 0x5
  v_cmp_lt_i32 v1, 10
  s_and_saveexec_vcc s2
  v_add v2, v2, 1
  s_endpgm
`)
	const p = 4
	plan := AnalyzeWindow(prog, live, p, 0, FeatRelaxed|FeatRevert, nil)
	if plan == nil {
		t.Fatal("window should be feasible via save/reload")
	}
	for _, pr := range plan.PreemptReverts {
		if pr.K == 0 {
			t.Error("v_add at window[0] must not be reverted at preemption (EXEC changed)")
		}
	}
	// v0's current value must come from the reload path instead.
	if plan.InitRegs[isa.V(0)] == InitRevertPreempt {
		t.Error("v0 must not be recovered by revert@preempt under changed EXEC")
	}
}

func TestOSRBRecoversShiftedCounter(t *testing.T) {
	// s1 >>= 1 destroys bits (no !noovf), so re-executing the v_add that
	// read s1 needs OSRB.
	prog, live := analyzeSrc(t, `
.kernel osrb
.vregs 8
.sregs 16
loop:
  v_add v0, v1, s1
  v_mul v1, v0, 3
  s_shr s1, s1, 1
  s_cmp_gt s1, 0
  s_cbranch_scc1 loop
  v_gstore v2, v1, 0
  s_endpgm
`)
	const p = 4 // at the branch, after the shift
	osrb := map[isa.Reg]isa.Reg{isa.S(1): isa.S(8)}
	with := AnalyzeWindow(prog, live, p, 0, FeatAll, osrb)
	if with == nil {
		t.Fatal("window must be feasible with OSRB")
	}
	if with.InitRegs[isa.S(1)] != InitOSRB {
		t.Fatalf("s1 source = %v, want OSRB (init %v)", with.InitRegs[isa.S(1)], with.InitRegs)
	}
	without := AnalyzeWindow(prog, live, p, 0, FeatRelaxed|FeatRevert, nil)
	if without != nil && without.ContextBytes < with.ContextBytes {
		t.Errorf("OSRB plan (%dB) should not be worse than non-OSRB (%dB)",
			with.ContextBytes, without.ContextBytes)
	}
}

func TestCompileSelectsSmallerContexts(t *testing.T) {
	// A loop where the mid-body context is much larger than at the head:
	// flashing back must beat the LIVE (empty-window) context somewhere.
	prog, live := analyzeSrc(t, `
.kernel shrink
.vregs 16
.sregs 16
loop:
  v_gload v1, v0, 0
  v_gload v2, v0, 4
  v_gload v3, v0, 8
  v_gload v4, v0, 12
  v_add v5, v1, v2
  v_add v6, v3, v4
  v_add v7, v5, v6
  v_gstore v8, v7, 0
  v_add v0, v0, 16 !noovf
  v_add v8, v8, 4 !noovf
  s_sub s0, s0, 1
  s_cmp_gt s0, 0
  s_cbranch_scc1 loop
  s_endpgm
`)
	c, err := Compile(prog, FeatAll)
	if err != nil {
		t.Fatal(err)
	}
	improved := false
	for pc := 0; pc < prog.Len(); pc++ {
		plan := c.Plans[pc]
		liveBytes := live.ContextBytes(pc)
		if plan.ContextBytes > liveBytes {
			t.Errorf("pc %d: selected plan context %dB exceeds LIVE %dB", pc, plan.ContextBytes, liveBytes)
		}
		if plan.ContextBytes < liveBytes {
			improved = true
		}
	}
	if !improved {
		t.Error("CTXBack never improved on LIVE in a loop with heavy mid-body pressure")
	}
}

func TestCompileRoutineSharing(t *testing.T) {
	prog, _ := fig2Program(t)
	c, err := Compile(prog, FeatAll)
	if err != nil {
		t.Fatal(err)
	}
	if c.UniqueRoutines <= 0 || c.UniqueRoutines > prog.Len() {
		t.Errorf("unique routines = %d of %d instructions", c.UniqueRoutines, prog.Len())
	}
	if c.SharedRoutineBytes <= 0 || c.SharedRoutineBytes > c.UnsharedRoutineBytes {
		t.Errorf("sharing must not grow the transfer: %d vs %d",
			c.SharedRoutineBytes, c.UnsharedRoutineBytes)
	}
	if c.UniqueRoutines < prog.Len() && c.SharedRoutineBytes >= c.UnsharedRoutineBytes {
		t.Error("sharing found duplicates but saved no bytes")
	}
}

// Every plan Compile selects must pass the symbolic validator for every
// kernel-shaped program we can throw at it (the dynamic golden test in
// internal/preempt covers the rest).
func TestCompileAllPlansValidate(t *testing.T) {
	srcs := map[string]string{
		"fig2": `
.kernel fig2
.vregs 8
.sregs 16
  v_xor v3, v4, 0xF
  v_mul v1, v3, 0x7
  v_shr v0, v0, 0x2
  v_add v2, v0, v4
  v_gstore v5, v0, 0
  s_endpgm
`,
		"divergent": `
.kernel divergent
.vregs 8
.sregs 16
loop:
  v_laneid v0
  v_cmp_lt_i32 v0, 32
  s_and_saveexec_vcc s2
  v_add v1, v1, 1
  s_setexec s2
  v_add v2, v2, v1
  s_sub s0, s0, 1
  s_cmp_gt s0, 0
  s_cbranch_scc1 loop
  v_gstore v3, v2, 0
  s_endpgm
`,
	}
	for name, src := range srcs {
		prog, live := analyzeSrc(t, src)
		for _, feats := range []Feature{0, FeatRelaxed, FeatRelaxed | FeatRevert, FeatAll} {
			c, err := CompileWindow(prog, feats, 16)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, feats, err)
			}
			for pc, plan := range c.Plans {
				if err := ValidatePlan(prog, live, plan); err != nil {
					t.Errorf("%s/%v pc %d: %v", name, feats, pc, err)
				}
			}
		}
	}
}

func TestValidatorRejectsCorruptPlans(t *testing.T) {
	prog, live := fig2Program(t)
	plan := AnalyzeWindow(prog, live, 4, 0, FeatRelaxed, nil)
	if plan == nil {
		t.Fatal("base plan must exist")
	}
	// Corrupt: claim I2 re-executes although its operand was overwritten.
	bad := *plan
	bad.Status = append([]Status(nil), plan.Status...)
	bad.Status[2] = StatusReExec
	if err := ValidatePlan(prog, live, &bad); err == nil {
		t.Error("validator must reject re-exec of an instruction with a clobbered operand")
	}
	// Corrupt: drop a needed init register.
	bad2 := *plan
	bad2.InitRegs = map[isa.Reg]InitSource{}
	for r, s := range plan.InitRegs {
		if r != isa.V(4) {
			bad2.InitRegs[r] = s
		}
	}
	if err := ValidatePlan(prog, live, &bad2); err == nil {
		t.Error("validator must reject plans missing a live-in register")
	}
}

func TestSpareRegs(t *testing.T) {
	prog := &isa.Program{NumSRegs: 36, NumVRegs: 4}
	spares := spareRegs(prog)
	if len(spares) != 12 {
		t.Fatalf("36 used sregs -> 12 padding spares, got %d", len(spares))
	}
	if spares[0] != isa.S(36) || spares[11] != isa.S(47) {
		t.Errorf("spares = %v", spares)
	}
}
