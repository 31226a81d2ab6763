package cfg

import (
	"testing"

	"ctxback/internal/isa"
)

func mustAsm(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSingleBlock(t *testing.T) {
	p := mustAsm(t, `
.kernel s
.vregs 4
.sregs 16
  v_mov v0, 1
  v_add v1, v0, 2
  s_endpgm
`)
	g := mustGraph(p)
	if len(g.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(g.Blocks))
	}
	b := g.Blocks[0]
	if b.Start != 0 || b.End != 3 || len(b.Succs) != 0 {
		t.Errorf("block = %+v", b)
	}
}

func TestLoopCFG(t *testing.T) {
	p := mustAsm(t, `
.kernel loop
.vregs 4
.sregs 16
  s_mov s0, 8
loop:
  v_add v0, v0, 1
  s_sub s0, s0, 1
  s_cmp_gt s0, 0
  s_cbranch_scc1 loop
  s_endpgm
`)
	g := mustGraph(p)
	// Blocks: [0,1) preheader, [1,5) loop body, [5,6) exit.
	if len(g.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3\n%s", len(g.Blocks), g.String())
	}
	body := g.BlockOf(2)
	if body.Start != 1 || body.End != 5 {
		t.Errorf("body block = %+v", body)
	}
	// Body has two successors: itself and the exit block.
	if len(body.Succs) != 2 {
		t.Errorf("body succs = %v", body.Succs)
	}
	headers := g.LoopHeaders()
	if !headers[body.ID] {
		t.Errorf("loop header not detected: %v", headers)
	}
	if headers[0] || headers[g.BlockOf(5).ID] {
		t.Errorf("spurious loop headers: %v", headers)
	}
}

func TestDiamondCFG(t *testing.T) {
	p := mustAsm(t, `
.kernel diamond
.vregs 4
.sregs 16
  s_cmp_eq s0, 0
  s_cbranch_scc1 else
  v_mov v0, 1
  s_branch join
else:
  v_mov v0, 2
join:
  v_add v1, v0, 1
  s_endpgm
`)
	g := mustGraph(p)
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4\n%s", len(g.Blocks), g.String())
	}
	entry := g.BlockOf(0)
	if len(entry.Succs) != 2 {
		t.Errorf("entry succs = %v", entry.Succs)
	}
	join := g.BlockOf(p.Labels["join"])
	if len(join.Preds) != 2 {
		t.Errorf("join preds = %v", join.Preds)
	}
	if len(g.LoopHeaders()) != 0 {
		t.Error("diamond has no loops")
	}
}

func TestFlashbackHeadBlockBound(t *testing.T) {
	p := mustAsm(t, `
.kernel fb
.vregs 4
.sregs 16
  v_mov v0, 1
target:
  v_add v0, v0, 1
  v_add v1, v0, 2
  s_branch target
`)
	g := mustGraph(p)
	// pc 2 is in the block starting at `target` (pc 1): window cannot
	// cross the block boundary backwards.
	if h := g.FlashbackHead(2); h != 1 {
		t.Errorf("FlashbackHead(2) = %d, want 1", h)
	}
	if h := g.FlashbackHead(0); h != 0 {
		t.Errorf("FlashbackHead(0) = %d, want 0", h)
	}
}

func TestRegionBrokenByAtomic(t *testing.T) {
	p := mustAsm(t, `
.kernel atom
.vregs 4
.sregs 16
  v_mov v0, 1
  v_gatomic_add v1, v0, 0
  v_add v2, v0, 1
  v_add v3, v2, 1
  s_endpgm
`)
	g := mustGraph(p)
	// PCs after the atomic (pc 1) may not flash back across it.
	if h := g.FlashbackHead(3); h != 2 {
		t.Errorf("FlashbackHead(3) = %d, want 2 (atomic at 1)", h)
	}
	if h := g.FlashbackHead(1); h != 0 {
		t.Errorf("FlashbackHead(1) = %d, want 0 (window [0,1) has no hazard)", h)
	}
}

func TestRegionBrokenByBarrier(t *testing.T) {
	p := mustAsm(t, `
.kernel bar
.vregs 4
.sregs 16
.lds 64
  v_lstore v0, v1, 0
  s_barrier
  v_lload v2, v0, 0
  v_add v3, v2, 1
  s_endpgm
`)
	g := mustGraph(p)
	if h := g.FlashbackHead(3); h != 2 {
		t.Errorf("FlashbackHead(3) = %d, want 2 (barrier at 1)", h)
	}
}

func TestRegionLoadThenAliasingStore(t *testing.T) {
	// Read-modify-write on the same space: replaying the load after the
	// store would read the new value, so the window must start after the
	// load.
	p := mustAsm(t, `
.kernel rmw
.vregs 4
.sregs 16
  v_gload v1, v0, 0
  v_add v1, v1, 1
  v_gstore v0, v1, 0
  v_add v2, v1, 1
  s_endpgm
`)
	g := mustGraph(p)
	if h := g.FlashbackHead(3); h != 1 {
		t.Errorf("FlashbackHead(3) = %d, want 1 (load at 0 then aliasing store at 2)", h)
	}
	// Before the store there is no hazard.
	if h := g.FlashbackHead(2); h != 0 {
		t.Errorf("FlashbackHead(2) = %d, want 0", h)
	}
}

func TestRegionDisjointSpacesDoNotAlias(t *testing.T) {
	// Load from space 1, store to space 2: no hazard, whole block is one
	// region.
	b := isa.NewBuilder("spaces", 4, 16, 0)
	b.I(isa.VGLoad, isa.R(isa.V(1)), isa.R(isa.V(0)), isa.Imm(0)).Space(1)
	b.I(isa.VAdd, isa.R(isa.V(1)), isa.R(isa.V(1)), isa.Imm(1))
	b.I(isa.VGStore, isa.R(isa.V(0)), isa.R(isa.V(1)), isa.Imm(0)).Space(2)
	b.I(isa.VAdd, isa.R(isa.V(2)), isa.R(isa.V(1)), isa.Imm(1))
	b.I(isa.SEndpgm)
	g := mustGraph(mustProg(b))
	if h := g.FlashbackHead(3); h != 0 {
		t.Errorf("FlashbackHead(3) = %d, want 0 (disjoint spaces)", h)
	}
}

func TestRegionLDSAndGlobalNeverAlias(t *testing.T) {
	p := mustAsm(t, `
.kernel mixmem
.vregs 4
.sregs 16
.lds 64
  v_gload v1, v0, 0
  v_lstore v0, v1, 0
  v_add v2, v1, 1
  s_endpgm
`)
	g := mustGraph(p)
	if h := g.FlashbackHead(2); h != 0 {
		t.Errorf("FlashbackHead(2) = %d, want 0 (LDS store vs global load)", h)
	}
}

func TestBuildRejectsInvalidProgram(t *testing.T) {
	p := &isa.Program{Name: "bad"}
	if _, err := Build(p); err == nil {
		t.Error("Build must reject invalid programs")
	}
}

// TestBuildRejectsOversizedRegisterCounts: cfg.Build validates, so a
// program whose register counts exceed an isa.RegSet never reaches the
// analyses.
func TestBuildRejectsOversizedRegisterCounts(t *testing.T) {
	p := &isa.Program{Name: "big", Instrs: []isa.Instruction{{Op: isa.SEndpgm}}, NumVRegs: isa.MaxVRegs + 1}
	if _, err := Build(p); err == nil {
		t.Fatal("Build accepted more vector registers than a RegSet holds")
	}
}
