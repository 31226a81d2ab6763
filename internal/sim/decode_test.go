package sim

import (
	"strings"
	"sync"
	"testing"

	"ctxback/internal/isa"
)

// TestIssuePathAllocatesNothing holds kernel-mode issue to zero
// allocations per Step. Each case loops one kind of instruction, closed
// by a branch back, on a running device whose pages and queues the
// warm-up steps have already touched.
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
