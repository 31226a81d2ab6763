package isa

import (
	"math"
	"strconv"
)

// OperandKind distinguishes source-operand forms.
type OperandKind uint8

const (
	OperandNone OperandKind = iota
	OperandReg
	OperandImm
)

// Operand is a source operand: a register or a 32-bit immediate.
type Operand struct {
	Kind OperandKind
	Reg  Reg
	Imm  uint32
}

// R wraps a register as an operand.
func R(r Reg) Operand { return Operand{Kind: OperandReg, Reg: r} }

// Imm wraps a signed integer immediate.
func Imm(v int) Operand { return Operand{Kind: OperandImm, Imm: uint32(int32(v))} }

// ImmU wraps a raw 32-bit immediate.
func ImmU(v uint32) Operand { return Operand{Kind: OperandImm, Imm: v} }

// ImmF wraps a float32 immediate (stored as its bit pattern).
func ImmF(v float32) Operand { return Operand{Kind: OperandImm, Imm: math.Float32bits(v)} }

// IsReg reports whether the operand is a register.
func (o Operand) IsReg() bool { return o.Kind == OperandReg }

// IsImm reports whether the operand is an immediate.
func (o Operand) IsImm() bool { return o.Kind == OperandImm }

func (o Operand) String() string { return string(o.appendText(nil)) }

func (o Operand) appendText(b []byte) []byte {
	switch o.Kind {
	case OperandReg:
		return o.Reg.appendText(b)
	case OperandImm:
		return strconv.AppendInt(b, int64(int32(o.Imm)), 10)
	}
	return append(b, '_')
}

// MaxSrcs is the maximum number of explicit source operands.
const MaxSrcs = 3

// Instruction is one decoded instruction. Instructions are immutable once
// placed in a Program; analyses reference them by index (PC).
type Instruction struct {
	Op   Op
	Dst  Reg              // explicit destination (RegNone if absent)
	Srcs [MaxSrcs]Operand // explicit sources (Info().NumSrc valid entries)
	Imm0 int32            // memory offset / lane index / ctx slot
	// Target is the absolute instruction index for branches, the resume
	// PC for CtxSavePC/CtxResume.
	Target int
	// NoOverflow asserts the result never discarded significant bits, so
	// shift-class instructions may be reverted (set by kernel authors on
	// address arithmetic).
	NoOverflow bool
	// MemSpace tags memory instructions with the buffer (kernel argument)
	// they address. Accesses to different spaces never alias; MemSpace 0
	// (untagged) conservatively aliases everything. Drives the
	// idempotent-region analysis in internal/cfg.
	MemSpace int16
	Comment  string
}

// MayAlias reports whether two memory instructions can touch the same
// location, judged by their declared memory spaces. LDS and global
// accesses never alias each other regardless of tags.
func MayAlias(a, b *Instruction) bool {
	aLDS := a.Op.Info().Class == ClassLDSMem
	bLDS := b.Op.Info().Class == ClassLDSMem
	if aLDS != bLDS {
		return false
	}
	if a.MemSpace == 0 || b.MemSpace == 0 {
		return true
	}
	return a.MemSpace == b.MemSpace
}

// NumSrcs returns the count of meaningful source operands.
func (in *Instruction) NumSrcs() int { return in.Op.Info().NumSrc }

// SrcOperands returns the meaningful source operands.
func (in *Instruction) SrcOperands() []Operand {
	return in.Srcs[:in.NumSrcs()]
}

// Uses appends every register this instruction reads (explicit sources
// plus implicit EXEC/VCC/SCC reads) to dst and returns it.
func (in *Instruction) Uses(dst []Reg) []Reg {
	info := in.Op.Info()
	for i := 0; i < info.NumSrc; i++ {
		if in.Srcs[i].IsReg() {
			dst = append(dst, in.Srcs[i].Reg)
		}
	}
	if info.ReadsExec {
		dst = append(dst, Exec)
	}
	if info.ReadsVCC {
		dst = append(dst, VCC)
	}
	if info.ReadsSCC {
		dst = append(dst, SCC)
	}
	// VWriteLane overwrites a single lane, so the previous value of the
	// destination vector register is also an input.
	if in.Op == VWriteLane && in.Dst.Valid() {
		dst = append(dst, in.Dst)
	}
	return dst
}

// Defs appends every register this instruction writes (explicit
// destination plus implicit EXEC/VCC/SCC writes) to dst and returns it.
func (in *Instruction) Defs(dst []Reg) []Reg {
	info := in.Op.Info()
	if info.HasDst && in.Dst.Valid() {
		dst = append(dst, in.Dst)
	}
	if info.WritesExec {
		dst = append(dst, Exec)
	}
	if info.WritesVCC {
		dst = append(dst, VCC)
	}
	if info.WritesSCC {
		dst = append(dst, SCC)
	}
	return dst
}

// UseSet returns the use registers as a set.
func (in *Instruction) UseSet() RegSet {
	var buf [MaxSrcs + 4]Reg
	return NewRegSet(in.Uses(buf[:0])...)
}

// DefSet returns the def registers as a set.
func (in *Instruction) DefSet() RegSet {
	var buf [4]Reg
	return NewRegSet(in.Defs(buf[:0])...)
}

// IsBranch reports whether the instruction may transfer control.
func (in *Instruction) IsBranch() bool { return in.Op.Info().Class == ClassBranch }

// IsUnconditionalBranch reports an always-taken branch.
func (in *Instruction) IsUnconditionalBranch() bool { return in.Op == SBranch }

// IsTerminator reports whether the instruction ends a basic block.
func (in *Instruction) IsTerminator() bool {
	return in.IsBranch() || in.Op == SEndpgm || in.Op == CtxExit || in.Op == CtxResume
}

// HasSideEffects reports whether the instruction writes memory or
// synchronizes, i.e. cannot be speculatively re-executed in isolation.
func (in *Instruction) HasSideEffects() bool {
	switch in.Op.Info().Class {
	case ClassAtomic, ClassSync:
		return in.Op != SNop
	}
	switch in.Op {
	case SGStore, VGStore, VLStore, CtxSaveV, CtxSaveS, CtxSaveSpec, CtxSaveLDS, CtxSavePC:
		return true
	}
	return false
}

// SharedOperandPositions returns which source positions hold the same
// register as the destination (the r_share form of paper §III-C),
// restricted to positions the opcode can actually revert through.
func (in *Instruction) SharedOperandPositions() []int {
	info := in.Op.Info()
	if !info.HasDst || !in.Dst.Valid() || info.Inverse == OpInvalid {
		return nil
	}
	var out []int
	if info.SelfOperand0 && info.NumSrc >= 1 && in.Srcs[0].IsReg() && in.Srcs[0].Reg == in.Dst {
		out = append(out, 0)
	}
	if info.SelfOperand1 && info.NumSrc >= 2 && in.Srcs[1].IsReg() && in.Srcs[1].Reg == in.Dst {
		out = append(out, 1)
	}
	return out
}

// Revertible reports whether executing the returned instruction recovers
// the destination register's previous value, assuming all of the returned
// instruction's operands hold correct values. The recovered register is
// always in.Dst. Returns ok=false when the instruction is not of a
// revertible form.
//
// Forms handled (writing r' for the post-value of the shared register r):
//
//	r' = r + x    ->  r = r' - x     (also x + r)
//	r' = r - x    ->  r = r' + x
//	r' = x - r    ->  r = x - r'
//	r' = r ^ x    ->  r = r' ^ x     (also x ^ r)
//	r' = ^r       ->  r = ^r'
//	r' = r << x   ->  r = r' >> x    (NoOverflow only)
func (in *Instruction) Revertible() (rev Instruction, ok bool) {
	info := in.Op.Info()
	if info.Inverse == OpInvalid || (info.NeedsNoOvf && !in.NoOverflow) {
		return Instruction{}, false
	}
	positions := in.SharedOperandPositions()
	if len(positions) == 0 {
		return Instruction{}, false
	}
	pos := positions[0]
	r := in.Dst
	switch {
	case info.NumSrc == 1:
		// r' = op(r): self-inverse unary (NOT).
		rev = Instruction{Op: info.Inverse, Dst: r, Srcs: [MaxSrcs]Operand{R(r)}}
	case pos == 0:
		// r' = op(r, x) -> r = inv(r', x).
		rev = Instruction{Op: info.Inverse, Dst: r, Srcs: [MaxSrcs]Operand{R(r), in.Srcs[1]}}
	default:
		// pos == 1: r' = op(x, r).
		switch in.Op {
		case VAdd, SAdd, VXor, SXor:
			// Commutative: same as pos 0.
			rev = Instruction{Op: info.Inverse, Dst: r, Srcs: [MaxSrcs]Operand{R(r), in.Srcs[0]}}
		case VSub, SSub:
			// r' = x - r -> r = x - r'.
			rev = Instruction{Op: in.Op, Dst: r, Srcs: [MaxSrcs]Operand{in.Srcs[0], R(r)}}
		default:
			return Instruction{}, false
		}
	}
	rev.NoOverflow = in.NoOverflow
	rev.Comment = "revert"
	return rev, true
}

// RevertExtraOperands returns the registers (besides the shared register
// itself) that the reverting instruction of in reads. ok mirrors
// Revertible.
func (in *Instruction) RevertExtraOperands() (regs []Reg, ok bool) {
	rev, ok := in.Revertible()
	if !ok {
		return nil, false
	}
	for _, s := range rev.SrcOperands() {
		if s.IsReg() && s.Reg != in.Dst {
			regs = append(regs, s.Reg)
		}
	}
	return regs, true
}

// String renders the instruction in assembler syntax (without labels).
func (in *Instruction) String() string { return string(in.AppendText(nil)) }

// AppendText appends String's rendering to b. Hot paths (routine
// sharing keys every compiled routine by its text) render into a reused
// buffer instead of allocating a string per instruction.
func (in *Instruction) AppendText(b []byte) []byte {
	info := in.Op.Info()
	b = append(b, info.Name...)
	sep := " "
	if info.HasDst && in.Dst.Valid() {
		b = append(b, sep...)
		b = in.Dst.appendText(b)
		sep = ", "
	}
	for _, s := range in.SrcOperands() {
		b = append(b, sep...)
		b = s.appendText(b)
		sep = ", "
	}
	if info.HasImm {
		b = append(b, sep...)
		b = strconv.AppendInt(b, int64(in.Imm0), 10)
		sep = ", "
	}
	if info.HasTgt {
		b = append(b, sep...)
		b = append(b, '@')
		b = strconv.AppendInt(b, int64(in.Target), 10)
	}
	if in.NoOverflow {
		b = append(b, " !noovf"...)
	}
	if in.Comment != "" {
		b = append(b, " ; "...)
		b = append(b, in.Comment...)
	}
	return b
}
