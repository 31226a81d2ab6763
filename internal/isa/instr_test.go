package isa

import (
	"strings"
	"testing"
)

func TestOpInfoComplete(t *testing.T) {
	for op := Op(1); op < opCount; op++ {
		info := op.Info()
		if info.Name == "" {
			t.Errorf("op %d has no name", op)
		}
		if info.IssueCycles <= 0 {
			t.Errorf("%s has non-positive issue cycles", op)
		}
		back, ok := OpByName(info.Name)
		if !ok || back != op {
			t.Errorf("OpByName(%q) = %v,%v; want %v", info.Name, back, ok, op)
		}
	}
}

func TestUsesDefsExplicit(t *testing.T) {
	in := Instruction{Op: VAdd, Dst: V(3), Srcs: [MaxSrcs]Operand{R(V(1)), R(S(2))}}
	uses := NewRegSet(in.Uses(nil)...)
	if uses != NewRegSet(V(1), S(2), Exec) {
		t.Errorf("uses = %v", uses.Sorted())
	}
	defs := NewRegSet(in.Defs(nil)...)
	if defs != NewRegSet(V(3)) {
		t.Errorf("defs = %v", defs.Sorted())
	}
}

func TestUsesDefsImplicit(t *testing.T) {
	cmp := Instruction{Op: VCmpLtI, Srcs: [MaxSrcs]Operand{R(V(0)), Imm(5)}}
	if !NewRegSet(cmp.Defs(nil)...).Has(VCC) {
		t.Error("v_cmp must define VCC")
	}
	br := Instruction{Op: SCBranchSCC1, Target: 0}
	if !NewRegSet(br.Uses(nil)...).Has(SCC) {
		t.Error("s_cbranch_scc1 must use SCC")
	}
	sx := Instruction{Op: SAndSaveExecVCC, Dst: S(0)}
	u := NewRegSet(sx.Uses(nil)...)
	d := NewRegSet(sx.Defs(nil)...)
	if !u.Has(Exec) || !u.Has(VCC) {
		t.Errorf("saveexec uses = %v", u.Sorted())
	}
	if !d.Has(Exec) || !d.Has(S(0)) {
		t.Errorf("saveexec defs = %v", d.Sorted())
	}
	cnd := Instruction{Op: VCndMask, Dst: V(0), Srcs: [MaxSrcs]Operand{R(V(1)), R(V(2))}}
	if !NewRegSet(cnd.Uses(nil)...).Has(VCC) {
		t.Error("v_cndmask must use VCC")
	}
}

func TestVWriteLaneReadsDst(t *testing.T) {
	in := Instruction{Op: VWriteLane, Dst: V(4), Srcs: [MaxSrcs]Operand{R(S(1))}, Imm0: 3}
	u := NewRegSet(in.Uses(nil)...)
	if !u.Has(V(4)) || !u.Has(S(1)) {
		t.Errorf("v_writelane uses = %v; must include dst vector reg (partial write)", u.Sorted())
	}
}

func TestTerminators(t *testing.T) {
	for _, op := range []Op{SBranch, SCBranchSCC1, SCBranchExecZ, SEndpgm, CtxExit, CtxResume} {
		in := Instruction{Op: op}
		if !in.IsTerminator() {
			t.Errorf("%s should be a terminator", op)
		}
	}
	for _, op := range []Op{VAdd, SBarrier, VGStore} {
		in := Instruction{Op: op}
		if in.IsTerminator() {
			t.Errorf("%s should not be a terminator", op)
		}
	}
}

func TestHasSideEffects(t *testing.T) {
	yes := []Op{VGStore, VLStore, SGStore, VGAtomicAdd, SBarrier, SEndpgm, CtxSaveV}
	no := []Op{VAdd, VGLoad, SGLoad, VLLoad, SNop, SMov}
	for _, op := range yes {
		if !(&Instruction{Op: op}).HasSideEffects() {
			t.Errorf("%s should have side effects", op)
		}
	}
	for _, op := range no {
		if (&Instruction{Op: op}).HasSideEffects() {
			t.Errorf("%s should not have side effects", op)
		}
	}
}

func TestRevertibleAdd(t *testing.T) {
	// r3 = r3 + 7  ->  r3 = r3 - 7
	in := Instruction{Op: VAdd, Dst: V(3), Srcs: [MaxSrcs]Operand{R(V(3)), Imm(7)}}
	rev, ok := in.Revertible()
	if !ok {
		t.Fatal("VAdd with shared dst/src0 must be revertible")
	}
	if rev.Op != VSub || rev.Dst != V(3) || rev.Srcs[0].Reg != V(3) || int32(rev.Srcs[1].Imm) != 7 {
		t.Errorf("bad revert: %s", rev.String())
	}
}

func TestRevertibleAddCommutedPosition(t *testing.T) {
	// r3 = 7 + r3  ->  r3 = r3 - 7
	in := Instruction{Op: VAdd, Dst: V(3), Srcs: [MaxSrcs]Operand{Imm(7), R(V(3))}}
	rev, ok := in.Revertible()
	if !ok {
		t.Fatal("commuted VAdd must be revertible")
	}
	if rev.Op != VSub || int32(rev.Srcs[1].Imm) != 7 {
		t.Errorf("bad revert: %s", rev.String())
	}
}

func TestRevertibleSubBothPositions(t *testing.T) {
	// r0 = r0 - r1 -> r0 = r0 + r1
	a := Instruction{Op: VSub, Dst: V(0), Srcs: [MaxSrcs]Operand{R(V(0)), R(V(1))}}
	rev, ok := a.Revertible()
	if !ok || rev.Op != VAdd {
		t.Fatalf("sub pos0 revert: ok=%v %s", ok, rev.String())
	}
	// r0 = r1 - r0 -> r0 = r1 - r0'
	bi := Instruction{Op: VSub, Dst: V(0), Srcs: [MaxSrcs]Operand{R(V(1)), R(V(0))}}
	rev, ok = bi.Revertible()
	if !ok || rev.Op != VSub || rev.Srcs[0].Reg != V(1) || rev.Srcs[1].Reg != V(0) {
		t.Fatalf("sub pos1 revert: ok=%v %s", ok, rev.String())
	}
}

func TestRevertibleXorSelfInverse(t *testing.T) {
	in := Instruction{Op: SXor, Dst: S(2), Srcs: [MaxSrcs]Operand{R(S(2)), R(S(5))}}
	rev, ok := in.Revertible()
	if !ok || rev.Op != SXor {
		t.Fatalf("xor revert: ok=%v %s", ok, rev.String())
	}
}

func TestShlRevertibleOnlyWithNoOverflow(t *testing.T) {
	in := Instruction{Op: VShl, Dst: V(1), Srcs: [MaxSrcs]Operand{R(V(1)), Imm(2)}}
	if _, ok := in.Revertible(); ok {
		t.Error("VShl without NoOverflow must not be revertible")
	}
	in.NoOverflow = true
	rev, ok := in.Revertible()
	if !ok || rev.Op != VShr {
		t.Fatalf("VShl !noovf revert: ok=%v %s", ok, rev.String())
	}
}

func TestNotRevertibleCases(t *testing.T) {
	cases := []Instruction{
		// dst not an operand
		{Op: VAdd, Dst: V(3), Srcs: [MaxSrcs]Operand{R(V(1)), R(V(2))}},
		// irreversible op
		{Op: VMul, Dst: V(3), Srcs: [MaxSrcs]Operand{R(V(3)), Imm(3)}},
		// float (rounding)
		{Op: VAddF, Dst: V(3), Srcs: [MaxSrcs]Operand{R(V(3)), ImmF(1.5)}},
		// shr loses bits even from src0
		{Op: VShr, Dst: V(3), Srcs: [MaxSrcs]Operand{R(V(3)), Imm(1)}},
	}
	for _, in := range cases {
		if _, ok := in.Revertible(); ok {
			t.Errorf("%s must not be revertible", in.String())
		}
	}
}

func TestRevertExtraOperands(t *testing.T) {
	in := Instruction{Op: VAdd, Dst: V(0), Srcs: [MaxSrcs]Operand{R(V(0)), R(V(7))}}
	regs, ok := in.RevertExtraOperands()
	if !ok || len(regs) != 1 || regs[0] != V(7) {
		t.Fatalf("extra operands = %v, ok=%v", regs, ok)
	}
	imm := Instruction{Op: VAdd, Dst: V(0), Srcs: [MaxSrcs]Operand{R(V(0)), Imm(4)}}
	regs, ok = imm.RevertExtraOperands()
	if !ok || len(regs) != 0 {
		t.Fatalf("imm extra operands = %v, ok=%v", regs, ok)
	}
}

func TestInstructionString(t *testing.T) {
	in := Instruction{Op: VGLoad, Dst: V(4), Srcs: [MaxSrcs]Operand{R(V(2))}, Imm0: 16}
	s := in.String()
	if !strings.Contains(s, "v_gload") || !strings.Contains(s, "v4") || !strings.Contains(s, "16") {
		t.Errorf("String() = %q", s)
	}
	br := Instruction{Op: SBranch, Target: 12}
	if !strings.Contains(br.String(), "@12") {
		t.Errorf("branch String() = %q", br.String())
	}
}
