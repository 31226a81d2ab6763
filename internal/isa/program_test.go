package isa

import (
	"fmt"
	"strings"
	"testing"
)

func testProgram(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("t", 8, 16, 0)
	b.I(SMov, R(S(0)), Imm(10))
	b.Label("loop")
	b.I(VAdd, R(V(0)), R(V(0)), Imm(1))
	b.I(SSub, R(S(0)), R(S(0)), Imm(1))
	b.I(SCmpGt, R(S(0)), Imm(0))
	b.Branch(SCBranchSCC1, "loop")
	b.I(SEndpgm)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuilderResolvesLabels(t *testing.T) {
	p := testProgram(t)
	if p.Len() != 6 {
		t.Fatalf("len = %d", p.Len())
	}
	br := p.At(4)
	if br.Op != SCBranchSCC1 || br.Target != 1 {
		t.Errorf("branch = %s, want target 1", br)
	}
	if p.Labels["loop"] != 1 {
		t.Errorf("label loop at %d", p.Labels["loop"])
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad", 4, 16, 0)
	b.Branch(SBranch, "nowhere")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Errorf("want undefined-label error, got %v", err)
	}

	b2 := NewBuilder("bad2", 4, 16, 0)
	b2.I(VAdd, R(V(0))) // missing sources
	b2.I(SEndpgm)
	if _, err := b2.Build(); err == nil {
		t.Error("want missing-source error")
	}

	b3 := NewBuilder("bad3", 4, 16, 0)
	b3.Label("x")
	b3.Label("x")
	b3.I(SEndpgm)
	if _, err := b3.Build(); err == nil || !strings.Contains(err.Error(), "duplicate label") {
		t.Errorf("want duplicate-label error, got %v", err)
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	// src places one instruction at pc 1, between a nop and the end.
	src := func(in Instruction) Program {
		return Program{Name: "src", NumVRegs: 2, NumSRegs: 16,
			Instrs: []Instruction{{Op: SNop}, in, {Op: SEndpgm}}}
	}
	cases := []struct {
		name string
		prog Program
		want string
	}{
		{
			"empty", Program{Name: "e"}, "empty",
		},
		{
			"no terminator",
			Program{Name: "nt", NumVRegs: 4, NumSRegs: 16, Instrs: []Instruction{
				{Op: VMov, Dst: V(0), Srcs: [MaxSrcs]Operand{Imm(1)}},
			}},
			"not a terminator",
		},
		{
			"vreg out of bounds",
			Program{Name: "ob", NumVRegs: 2, NumSRegs: 16, Instrs: []Instruction{
				{Op: VMov, Dst: V(5), Srcs: [MaxSrcs]Operand{Imm(1)}},
				{Op: SEndpgm},
			}},
			"exceeds declared",
		},
		{
			"branch target out of range",
			Program{Name: "bt", NumVRegs: 2, NumSRegs: 16, Instrs: []Instruction{
				{Op: SBranch, Target: 99},
				{Op: SEndpgm},
			}},
			"out of range",
		},
		{
			"scalar op reading vector",
			Program{Name: "sv", NumVRegs: 2, NumSRegs: 16, Instrs: []Instruction{
				{Op: SAdd, Dst: S(0), Srcs: [MaxSrcs]Operand{R(V(0)), Imm(1)}},
				{Op: SEndpgm},
			}},
			"reads vector",
		},
		{
			"vector dst on scalar op",
			Program{Name: "vd", NumVRegs: 2, NumSRegs: 16, Instrs: []Instruction{
				{Op: SMov, Dst: V(0), Srcs: [MaxSrcs]Operand{Imm(1)}},
				{Op: SEndpgm},
			}},
			"must be scalar",
		},
		{
			"lane out of range",
			Program{Name: "lr", NumVRegs: 2, NumSRegs: 16, Instrs: []Instruction{
				{Op: VReadLane, Dst: S(0), Srcs: [MaxSrcs]Operand{R(V(0))}, Imm0: 64},
				{Op: SEndpgm},
			}},
			"lane",
		},
		// Sources outside the register file the opcode reads.
		{"v_readlane s0, s1, 3", src(Instruction{Op: VReadLane, Dst: S(0), Srcs: [MaxSrcs]Operand{R(S(1))}, Imm0: 3}), "must be a vector register"},
		{"v_readlane s0, 7, 3", src(Instruction{Op: VReadLane, Dst: S(0), Srcs: [MaxSrcs]Operand{Imm(7)}, Imm0: 3}), "must be a vector register"},
		{"ctx_save_v s1, 0", src(Instruction{Op: CtxSaveV, Srcs: [MaxSrcs]Operand{R(S(1))}}), "must be a vector register"},
		{"v_writelane v0, v1, 3", src(Instruction{Op: VWriteLane, Dst: V(0), Srcs: [MaxSrcs]Operand{R(V(1))}, Imm0: 3}), "reads vector register v1"},
		{"s_gload s0, v1, 0", src(Instruction{Op: SGLoad, Dst: S(0), Srcs: [MaxSrcs]Operand{R(V(1))}}), "reads vector register v1"},
		{"s_gstore v1, s1, 0", src(Instruction{Op: SGStore, Srcs: [MaxSrcs]Operand{R(V(1)), R(S(1))}}), "reads vector register v1"},
		{"ctx_save_s 5, 0", src(Instruction{Op: CtxSaveS, Srcs: [MaxSrcs]Operand{Imm(5)}}), "must be a scalar register"},
		{"ctx_save_s v1, 0", src(Instruction{Op: CtxSaveS, Srcs: [MaxSrcs]Operand{R(V(1))}}), "must be a scalar register"},
		{"ctx_save_spec s1, 0", src(Instruction{Op: CtxSaveSpec, Srcs: [MaxSrcs]Operand{R(S(1))}}), "must be a special register"},
	}
	for i := range cases {
		c := &cases[i]
		err := c.prog.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
		if c.prog.Name == "src" && err != nil && !strings.Contains(err.Error(), "pc 1 ") {
			t.Errorf("%s: err = %v does not name the bad instruction's pc 1", c.name, err)
		}
	}
}

func TestAllocationAlignment(t *testing.T) {
	p := &Program{NumVRegs: 42, NumSRegs: 36}
	if got := p.AllocatedVRegs(); got != 44 {
		t.Errorf("AllocatedVRegs = %d, want 44 (granule 4)", got)
	}
	if got := p.AllocatedSRegs(); got != 48 {
		t.Errorf("AllocatedSRegs = %d, want 48 (granule 16)", got)
	}
	if got := p.VRegContextBytes(); got != 44*4*WarpSize {
		t.Errorf("VRegContextBytes = %d", got)
	}
	if got := p.SRegContextBytes(); got != 48*4 {
		t.Errorf("SRegContextBytes = %d", got)
	}
	zero := &Program{}
	if zero.AllocatedVRegs() != 0 || zero.AllocatedSRegs() != 0 {
		t.Error("zero program must allocate nothing")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := testProgram(t)
	c := p.Clone()
	c.Instrs[0].Op = SNop
	c.Labels["loop"] = 99
	if p.Instrs[0].Op != SMov || p.Labels["loop"] != 1 {
		t.Error("Clone shares state with original")
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	p := testProgram(t)
	text := p.Disassemble()
	p2, err := Assemble(text)
	if err != nil {
		t.Fatalf("reassemble: %v\n%s", err, text)
	}
	if p2.Len() != p.Len() || p2.Name != p.Name || p2.NumVRegs != p.NumVRegs {
		t.Fatalf("round trip mismatch: %d vs %d instrs", p2.Len(), p.Len())
	}
	for pc := range p.Instrs {
		if p.Instrs[pc].Op != p2.Instrs[pc].Op || p.Instrs[pc].Target != p2.Instrs[pc].Target {
			t.Errorf("pc %d: %s vs %s", pc, p.Instrs[pc].String(), p2.Instrs[pc].String())
		}
	}
}

// TestDisassembleStable pins the listing's determinism when several
// labels share a PC: the map iteration order must not leak into the
// output (the listing is a triage artifact — same program, same bytes).
func TestDisassembleStable(t *testing.T) {
	p, err := Assemble(`
.kernel stable
.vregs 2
.sregs 8
alpha:
zeta:
beta:
  v_mov v0, 1
  s_endpgm
`)
	if err != nil {
		t.Fatal(err)
	}
	first := p.Disassemble()
	for i := 0; i < 32; i++ {
		if got := p.Disassemble(); got != first {
			t.Fatalf("iteration %d: listing changed:\n%s\nvs\n%s", i, got, first)
		}
	}
}

// TestValidateRejectsOversizedRegisterCounts: register counts beyond a
// RegSet's capacity are rejected by Validate and so by every path that
// builds a program: Builder, the assembler and DecodeProgram.
func TestValidateRejectsOversizedRegisterCounts(t *testing.T) {
	for _, c := range []struct {
		nv, ns int
		ok     bool
	}{
		{MaxVRegs, MaxSRegs, true},
		{MaxVRegs + 1, 16, false},
		{8, MaxSRegs + 1, false},
	} {
		b := NewBuilder("big", c.nv, c.ns, 0)
		b.I(SEndpgm)
		if _, err := b.Build(); (err == nil) != c.ok {
			t.Errorf("Builder %d/%d: err = %v, want ok=%v", c.nv, c.ns, err, c.ok)
		}
		if c.ok {
			continue
		}
		p := &Program{Name: "big", Instrs: []Instruction{{Op: SEndpgm}}, NumVRegs: c.nv, NumSRegs: c.ns}
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "capacity") {
			t.Errorf("Validate %d/%d: err = %v, want a capacity error", c.nv, c.ns, err)
		}
		src := fmt.Sprintf(".kernel big\n.vregs %d\n.sregs %d\n  s_endpgm\n", c.nv, c.ns)
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble %d/%d: accepted", c.nv, c.ns)
		}
		if _, err := DecodeProgram(EncodeProgram(p)); err == nil {
			t.Errorf("DecodeProgram %d/%d: accepted", c.nv, c.ns)
		}
	}
}
