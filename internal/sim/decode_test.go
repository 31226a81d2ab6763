package sim

import (
	"strings"
	"sync"
	"testing"

	"ctxback/internal/isa"
	"ctxback/internal/trace"
)

// tableRuntime hands the device the same decoded tables on every ask, as
// a technique does once its memo holds them: a preemption routine, a
// resume routine and, when hooks is set, a hook before every kernel
// instruction.
type tableRuntime struct {
	pre, res, hook []isa.Decoded
	hooks          bool
}

func (r *tableRuntime) Name() string                                         { return "tables" }
func (r *tableRuntime) PhaseNames() trace.PhaseNames                         { return trace.DefaultPhaseNames() }
func (r *tableRuntime) Instruments(prog *isa.Program) bool                   { return r.hooks }
func (r *tableRuntime) PreemptRoutine(w *Warp) []isa.Decoded                 { return r.pre }
func (r *tableRuntime) ResumeRoutine(w *Warp) ([]isa.Decoded, *SavedContext) { return r.res, nil }
func (r *tableRuntime) Hook(w *Warp, pc int) ([]isa.Decoded, *SavedContext) {
	return r.hook, nil
}

// TestIssuePathAllocatesNothing holds issue to zero allocations per Step
// in every mode. Each kernel-mode case loops one kind of instruction,
// closed by a branch back, on a running device whose pages and queues
// the warm-up steps have already touched. The routine and hook cases
// step warps through memoized tables of ALU work that end in the context
// ops a routine needs.
func TestIssuePathAllocatesNothing(t *testing.T) {
	for _, c := range []struct{ name, body string }{
		{"scalar-alu", "s_add s2, s2, 7\n s_and s3, s2, 0xFF\n s_cmp_gt s3, 3"},
		{"vector-alu", "v_add v1, v1, 3\n v_mul v2, v1, s1\n v_cmp_lt_i32 v1, v2\n v_cndmask v2, v1, v2"},
		{"vector-global", "v_gstore v3, v1, 0\n v_gload v2, v3, 0\n v_gatomic_add v3, v1, 4"},
		{"lds", "v_lstore v4, v1, 0\n v_lload v2, v4, 0"},
		{"branch", "s_cbranch_scc1 next\nnext:\n s_cbranch_execz loop"},
		{"barrier", "s_barrier\n s_barrier"},
	} {
		t.Run(c.name, func(t *testing.T) {
			prog := mustAsm(t, `
.kernel alloc
.vregs 8
.sregs 16
.lds 512
  v_laneid v0
  v_shl v4, v0, 2
  v_add v3, v4, s1
loop:
  `+c.body+`
  s_branch loop
`)
			d := mustNewDevice(TestConfig())
			if _, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 4, WarpsPerBlock: 2,
				Setup: func(w *Warp) { w.SRegs[1] = 8192 }}); err != nil {
				t.Fatal(err)
			}
			var err error
			step := func() {
				if ok, e := d.Step(); !ok || e != nil {
					err = e
				}
			}
			for range 2000 {
				step()
			}
			allocs := testing.AllocsPerRun(2000, step)
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("%v allocations per Step, want 0", allocs)
			}
		})
	}
	t.Run("routines-and-hooks", testRoutineStepsAllocateNothing)
}

// testRoutineStepsAllocateNothing steps warps inside a hook, a
// preemption routine and a resume routine, each a memoized table.
func testRoutineStepsAllocateNothing(t *testing.T) {
	prog := mustAsm(t, `
.kernel alloc
.vregs 8
.sregs 16
  v_laneid v0
  v_shl v4, v0, 2
  v_add v3, v4, s1
loop:
  v_add v1, v1, 3
  s_branch loop
`)
	body := mustAsm(t, ".kernel body\n.vregs 8\n.sregs 16\n"+
		strings.Repeat("v_add v1, v1, 3\n s_add s2, s2, 7\n v_mul v2, v1, s1\n", 100)+"s_endpgm\n").Instrs
	body = body[:len(body)-1]
	nv, ns := prog.AllocatedVRegs(), prog.AllocatedSRegs()
	decode := func(tail ...isa.Instruction) []isa.Decoded {
		return isa.DecodeStream(append(append([]isa.Instruction(nil), body...), tail...), nv, ns)
	}
	rt := &tableRuntime{
		pre:  decode(isa.Instruction{Op: isa.CtxSavePC, Target: 3}, isa.Instruction{Op: isa.CtxExit}),
		res:  decode(isa.Instruction{Op: isa.CtxResume, Target: 3}),
		hook: decode(),
	}
	for _, c := range []struct {
		mode  ExecMode
		hooks bool
	}{{ModeHook, true}, {ModePreemptRoutine, false}, {ModeResumeRoutine, false}} {
		rt.hooks = c.hooks
		d := mustNewDevice(TestConfig())
		d.AttachRuntime(rt)
		l, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 4, WarpsPerBlock: 2})
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			if ok, e := d.Step(); !ok || e != nil {
				err = e
			}
		}
		for range 100 {
			step()
		}
		var ep *Episode
		if c.mode != ModeHook {
			if ep, err = d.Preempt(0, rt); err != nil {
				t.Fatal(err)
			}
		}
		if c.mode == ModeResumeRoutine {
			if err := d.RunUntil(ep.Saved, 1_000_000); err != nil {
				t.Fatal(err)
			}
			if err := d.Resume(ep); err != nil {
				t.Fatal(err)
			}
		}
		// Every victim (every warp, for hooks) enters its stream.
		in := func() bool {
			for _, w := range l.Warps {
				if (ep == nil || ep.isVictim(w)) && w.Mode != c.mode {
					return false
				}
			}
			return true
		}
		for i := 0; !in(); i++ {
			if step(); i > 10_000 || err != nil {
				t.Fatalf("mode %d: warps never all entered the stream (%v)", c.mode, err)
			}
		}
		before := d.Stats
		allocs := testing.AllocsPerRun(200, step)
		if err != nil {
			t.Fatal(err)
		}
		if !in() {
			t.Fatalf("mode %d: a warp left its stream while measured", c.mode)
		}
		if d.Stats.HookInstrs == before.HookInstrs && d.Stats.RoutineInstrs == before.RoutineInstrs {
			t.Fatalf("mode %d: no routine or hook instruction issued while measured", c.mode)
		}
		if allocs != 0 {
			t.Errorf("mode %d: %v allocations per Step, want 0", c.mode, allocs)
		}
	}
}

// TestTableSharedAcrossLaunchesAndAliases launches one program, never
// decoded before, from eight goroutines on their own devices, each also
// taking an Alias of it and an Alias of that: every launch and every
// alias must see the one table.
func TestTableSharedAcrossLaunchesAndAliases(t *testing.T) {
	prog := benchLoopProgram(t)
	const n = 8
	tables := make([]*isa.Table, 3*n)
	code := make([]*isa.Decoded, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := NewDevice(TestConfig())
			if err != nil {
				t.Error(err)
				return
			}
			l, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 1, WarpsPerBlock: 1})
			if err != nil {
				t.Error(err)
				return
			}
			a := prog.Alias()
			tables[3*i], tables[3*i+1], tables[3*i+2] = prog.Table(), a.Table(), a.Alias().Table()
			code[i] = &l.table.Code[0]
		}()
	}
	wg.Wait()
	for i := range tables {
		if tables[i] != tables[0] {
			t.Fatalf("table %d is %p, table 0 is %p", i, tables[i], tables[0])
		}
	}
	for i := range code {
		if code[i] != &tables[0].Code[0] {
			t.Fatalf("launch %d issues from another table", i)
		}
	}
}

// TestLaunchInvalidProgramFailsAlike launches a program that fails
// validation twice: the verdict the table keeps must fail both launches
// with the same error.
func TestLaunchInvalidProgramFailsAlike(t *testing.T) {
	prog := &isa.Program{Name: "bad", NumVRegs: 4, NumSRegs: 16,
		Instrs: []isa.Instruction{{Op: isa.VAdd, Dst: isa.V(9),
			Srcs: [isa.MaxSrcs]isa.Operand{isa.R(isa.V(0)), isa.Imm(1)}}, {Op: isa.SEndpgm}}}
	var errs []string
	for range 2 {
		d := mustNewDevice(TestConfig())
		_, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 1, WarpsPerBlock: 1})
		if err == nil {
			t.Fatal("launch of an invalid program succeeded")
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] || !strings.Contains(errs[0], "exceeds declared count") {
		t.Fatalf("launch errors %q and %q", errs[0], errs[1])
	}
}
