package liveness

import (
	"testing"

	"ctxback/internal/cfg"
	"ctxback/internal/isa"
)

func analyze(t *testing.T, src string) (*isa.Program, *Info) {
	t.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, Analyze(g)
}

func TestStraightLineLiveness(t *testing.T) {
	// v0 feeds v1 feeds store; v2 is dead after its definition is unused.
	_, info := analyze(t, `
.kernel sl
.vregs 4
.sregs 16
  v_mov v0, 1
  v_add v1, v0, 2
  v_gstore v3, v1, 0
  s_endpgm
`)
	// Before pc1 (v_add), v0 must be live; v1 not yet.
	if !info.LiveIn[1].Has(isa.V(0)) {
		t.Error("v0 must be live-in at pc1")
	}
	if info.LiveIn[1].Has(isa.V(1)) {
		t.Error("v1 must not be live-in at pc1")
	}
	// After the store nothing (except nothing) is live.
	if info.LiveOut[2].Has(isa.V(1)) || info.LiveOut[2].Has(isa.V(3)) {
		t.Errorf("live-out at store = %v", info.LiveOut[2].Sorted())
	}
	// v3 (store address) is live-in at the store.
	if !info.LiveIn[2].Has(isa.V(3)) || !info.LiveIn[2].Has(isa.V(1)) {
		t.Errorf("live-in at store = %v", info.LiveIn[2].Sorted())
	}
}

func TestDeadCodeNotLive(t *testing.T) {
	_, info := analyze(t, `
.kernel dead
.vregs 4
.sregs 16
  v_mov v2, 9
  v_mov v0, 1
  v_gstore v1, v0, 0
  s_endpgm
`)
	// v2 is never used: it must not appear in any live set.
	for pc := range info.LiveIn {
		if info.LiveIn[pc].Has(isa.V(2)) {
			t.Errorf("dead v2 live-in at pc %d", pc)
		}
	}
}

func TestLoopCarriedLiveness(t *testing.T) {
	p, info := analyze(t, `
.kernel loop
.vregs 4
.sregs 16
  s_mov s0, 8
  v_mov v0, 0
loop:
  v_add v0, v0, 1
  s_sub s0, s0, 1
  s_cmp_gt s0, 0
  s_cbranch_scc1 loop
  v_gstore v1, v0, 0
  s_endpgm
`)
	body := p.Labels["loop"]
	// v0 and s0 are loop carried: live-in at loop head.
	if !info.LiveIn[body].Has(isa.V(0)) || !info.LiveIn[body].Has(isa.S(0)) {
		t.Errorf("loop head live-in = %v", info.LiveIn[body].Sorted())
	}
	// SCC is live between the compare and the branch.
	if !info.LiveIn[body+3].Has(isa.SCC) {
		t.Error("SCC must be live-in at the conditional branch")
	}
	// SCC is not live at the loop head (killed by compare before use).
	if info.LiveIn[body].Has(isa.SCC) {
		t.Error("SCC must not be live at loop head")
	}
}

func TestBranchJoinLiveness(t *testing.T) {
	p, info := analyze(t, `
.kernel join
.vregs 4
.sregs 16
  s_cmp_eq s0, 0
  s_cbranch_scc1 else
  v_mov v0, 1
  s_branch join
else:
  v_mov v0, 2
join:
  v_gstore v1, v0, 0
  s_endpgm
`)
	// v1 is used only at the join but must be live through both arms.
	if !info.LiveIn[2].Has(isa.V(1)) || !info.LiveIn[p.Labels["else"]].Has(isa.V(1)) {
		t.Error("v1 must be live through both branch arms")
	}
	// v0 is defined in both arms: not live-in at entry.
	if info.LiveIn[0].Has(isa.V(0)) {
		t.Error("v0 must not be live at entry")
	}
}

func TestExecLiveWithVectorOps(t *testing.T) {
	_, info := analyze(t, `
.kernel ex
.vregs 4
.sregs 16
  v_add v0, v0, 1
  s_endpgm
`)
	if !info.LiveIn[0].Has(isa.Exec) {
		t.Error("EXEC must be live before a vector op")
	}
}

func TestUseDefChains(t *testing.T) {
	_, info := analyze(t, `
.kernel ud
.vregs 4
.sregs 16
  v_mov v0, 1
  v_add v1, v0, 2
  v_mov v0, 3
  v_add v2, v0, v1
  s_endpgm
`)
	// At pc3, v0's reaching def is pc2 (not pc0) and v1's is pc1.
	if d, ok := info.LastDefIn(3, isa.V(0)); !ok || d != 2 {
		t.Errorf("def of v0 at pc3 = %d,%v; want 2", d, ok)
	}
	if d, ok := info.LastDefIn(3, isa.V(1)); !ok || d != 1 {
		t.Errorf("def of v1 at pc3 = %d,%v; want 1", d, ok)
	}
	// At pc0 nothing is defined yet.
	if _, ok := info.LastDefIn(0, isa.V(0)); ok {
		t.Error("no def should reach pc0")
	}
}

func TestContextBytes(t *testing.T) {
	_, info := analyze(t, `
.kernel cb
.vregs 4
.sregs 16
  v_add v1, v0, 2
  v_gstore v2, v1, 0
  s_endpgm
`)
	// Live-in at pc0: v0, v2, exec => 256 + 256 + 8.
	want := 2*4*isa.WarpSize + 8
	if got := info.ContextBytes(0); got != want {
		t.Errorf("ContextBytes(0) = %d, want %d (%v)", got, want, info.LiveIn[0].Sorted())
	}
}

func TestMinContextPC(t *testing.T) {
	_, info := analyze(t, `
.kernel mc
.vregs 8
.sregs 16
  v_add v1, v0, 1
  v_add v2, v1, 1
  v_gstore v7, v2, 0
  v_mov v3, 0
  v_add v4, v3, 1
  v_gstore v7, v4, 4
  s_endpgm
`)
	// After the first store (pc3) only v7+exec are live: the minimum.
	pc, bytes := info.MinContextPC(0, 6)
	if pc != 3 {
		t.Errorf("MinContextPC = %d, want 3", pc)
	}
	want := 4*isa.WarpSize + 8 // v7 + exec
	if bytes != want {
		t.Errorf("min bytes = %d, want %d (%v)", bytes, want, info.LiveIn[pc].Sorted())
	}
}

// Property: live-in/live-out satisfy the dataflow equations at every pc.
func TestDataflowEquationsHold(t *testing.T) {
	srcs := []string{
		`
.kernel a
.vregs 8
.sregs 16
  s_mov s0, 4
loop:
  v_gload v0, v1, 0
  v_mad v2, v0, v0, v2
  v_add v1, v1, 4 !noovf
  s_sub s0, s0, 1
  s_cmp_gt s0, 0
  s_cbranch_scc1 loop
  v_gstore v3, v2, 0
  s_endpgm
`, `
.kernel b
.vregs 4
.sregs 16
  v_cmp_lt_i32 v0, 10
  s_and_saveexec_vcc s2
  v_add v1, v1, 1
  s_setexec s2
  v_gstore v2, v1, 0
  s_endpgm
`,
	}
	for _, src := range srcs {
		p, info := analyze(t, src)
		for pc := 0; pc < p.Len(); pc++ {
			in := p.At(pc)
			want := info.LiveOut[pc]
			want.RemoveAll(in.DefSet())
			want.AddAll(in.UseSet())
			if want != info.LiveIn[pc] {
				t.Errorf("%s pc %d (%s): LiveIn = %v, want %v", p.Name, pc, in,
					info.LiveIn[pc].Sorted(), want.Sorted())
			}
		}
	}
}
