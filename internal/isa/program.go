package isa

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Program is an assembled kernel: a flat instruction sequence plus the
// static resource declaration the hardware allocator needs.
//
// A program is immutable once built: every analysis derived from it is
// memoized by its Digest, and the simulator executes its decoded Table;
// both are computed once and held on the program (and shared by its
// Aliases). Build a new program (or Clone one) instead of editing one.
type Program struct {
	Name string
	// Instrs is the instruction stream; an instruction's index is its PC.
	Instrs []Instruction
	// NumVRegs / NumSRegs are the architectural register counts actually
	// used by the kernel (before allocation alignment).
	NumVRegs int
	NumSRegs int
	// LDSBytes is the shared-memory footprint per thread block.
	LDSBytes int
	// Labels maps label names to PCs (kept for disassembly/debugging).
	Labels map[string]int

	enc   atomic.Pointer[encoded] // Encoding and Digest, once computed
	table atomic.Pointer[Table]   // Table, once decoded
}

// encoded is a program's canonical encoding and its SHA-256.
type encoded struct {
	bytes  []byte
	digest [32]byte
}

// Encoding returns EncodeProgram(p). The first call of Encoding or
// Digest computes it and later calls share it: never modify it.
func (p *Program) Encoding() []byte { return p.encoded().bytes }

// Digest returns the SHA-256 of p's Encoding, the program's content
// address.
func (p *Program) Digest() [32]byte { return p.encoded().digest }

func (p *Program) encoded() *encoded {
	if p.enc.Load() == nil {
		b := EncodeProgram(p)
		p.enc.Store(&encoded{b, sha256.Sum256(b)})
	}
	return p.enc.Load()
}

// Allocation granularities on the modeled hardware (paper §V: AMD Radeon
// VII allocates vector registers in groups of 4 and scalar registers in
// groups of 16).
const (
	VRegAllocGranule = 4
	SRegAllocGranule = 16
)

func alignUp(n, g int) int {
	if n <= 0 {
		return 0
	}
	return (n + g - 1) / g * g
}

// AllocatedVRegs returns the vector registers actually reserved per warp
// (used count rounded up to the allocation granule).
func (p *Program) AllocatedVRegs() int { return alignUp(p.NumVRegs, VRegAllocGranule) }

// AllocatedSRegs returns the scalar registers actually reserved per warp.
func (p *Program) AllocatedSRegs() int { return alignUp(p.NumSRegs, SRegAllocGranule) }

// VRegContextBytes is the per-warp vector-register context, including
// alignment padding — what a liveness-blind context switch must move.
func (p *Program) VRegContextBytes() int { return p.AllocatedVRegs() * 4 * WarpSize }

// SRegContextBytes is the per-warp scalar-register context.
func (p *Program) SRegContextBytes() int { return p.AllocatedSRegs() * 4 }

// At returns the instruction at pc.
func (p *Program) At(pc int) *Instruction { return &p.Instrs[pc] }

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.Instrs) }

// Validate performs static checks: register counts fit a RegSet,
// operand classes match opcode expectations, register indices are within
// declared bounds, branch targets are in range, and the program ends in
// a terminator.
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return fmt.Errorf("program %q: empty", p.Name)
	}
	if p.NumVRegs > MaxVRegs || p.NumSRegs > MaxSRegs {
		return fmt.Errorf("program %q: %d vector / %d scalar registers exceed the capacity of %d / %d",
			p.Name, p.NumVRegs, p.NumSRegs, MaxVRegs, MaxSRegs)
	}
	for pc := range p.Instrs {
		if err := p.validateInstr(pc); err != nil {
			return err
		}
	}
	last := &p.Instrs[len(p.Instrs)-1]
	if !last.IsTerminator() {
		return fmt.Errorf("program %q: last instruction %q is not a terminator", p.Name, last)
	}
	return nil
}

func (p *Program) validateInstr(pc int) error {
	in := &p.Instrs[pc]
	info := in.Op.Info()
	fail := func(format string, args ...any) error {
		return fmt.Errorf("program %q pc %d (%s): %s", p.Name, pc, in, fmt.Sprintf(format, args...))
	}
	if in.Op == OpInvalid || info.Name == "" {
		return fail("invalid opcode")
	}
	if info.HasDst {
		if !in.Dst.Valid() {
			return fail("missing destination")
		}
		if info.DstVec && in.Dst.Class != RegVector {
			return fail("destination must be a vector register")
		}
		if !info.DstVec && in.Dst.Class == RegVector && in.Op != CtxLoadSpec {
			return fail("destination must be scalar")
		}
	} else if in.Dst.Valid() {
		return fail("unexpected destination")
	}
	for i := 0; i < info.NumSrc; i++ {
		if in.Srcs[i].Kind == OperandNone {
			return fail("missing source %d", i)
		}
	}
	for i := info.NumSrc; i < MaxSrcs; i++ {
		if in.Srcs[i].Kind != OperandNone {
			return fail("extra source %d", i)
		}
	}
	if err := p.checkRegBounds(in); err != nil {
		return fail("%v", err)
	}
	if info.HasTgt && in.Op != CtxSavePC && in.Op != CtxResume {
		if in.Target < 0 || in.Target >= len(p.Instrs) {
			return fail("branch target %d out of range", in.Target)
		}
	}
	// The simulator reads each source from the file the opcode implies,
	// and liveness records the operand as written: the two agree only
	// when the operand names that file.
	want := srcRegClass(in.Op)
	for i, s := range in.SrcOperands() {
		if want != RegNone && (!s.IsReg() || s.Reg.Class != want) {
			return fail("source %d must be a %s register", i, want)
		}
		if readsScalarContext(in.Op) && s.IsReg() && s.Reg.Class == RegVector {
			return fail("scalar-context source reads vector register %s", s.Reg)
		}
	}
	if in.Op == VReadLane || in.Op == VWriteLane {
		if in.Imm0 < 0 || in.Imm0 >= WarpSize {
			return fail("lane %d out of range", in.Imm0)
		}
	}
	return nil
}

// srcRegClass is the register file every source of op must name, or
// RegNone when any register or immediate will do.
func srcRegClass(op Op) RegClass {
	switch op {
	case VReadLane, CtxSaveV:
		return RegVector
	case CtxSaveS:
		return RegScalar
	case CtxSaveSpec:
		return RegSpecial
	}
	return RegNone
}

// readsScalarContext reports whether op reads its sources as one value
// per warp: scalar registers, special registers or immediates, never a
// vector register (vector values reach the scalar file only through
// v_readlane).
func readsScalarContext(op Op) bool {
	switch op.Info().Class {
	case ClassScalarALU, ClassScalarMem:
		return true
	}
	return op == VWriteLane
}

func (p *Program) checkRegBounds(in *Instruction) error {
	check := func(r Reg) error {
		switch r.Class {
		case RegScalar:
			if int(r.Index) >= p.NumSRegs {
				return fmt.Errorf("scalar register %s exceeds declared count %d", r, p.NumSRegs)
			}
		case RegVector:
			if int(r.Index) >= p.NumVRegs {
				return fmt.Errorf("vector register %s exceeds declared count %d", r, p.NumVRegs)
			}
		case RegSpecial:
			if r.Index > SpecSCC {
				return fmt.Errorf("unknown special register %s", r)
			}
		default:
			return fmt.Errorf("register %s has no register class", r)
		}
		return nil
	}
	if in.Dst.Valid() {
		if err := check(in.Dst); err != nil {
			return err
		}
	}
	for _, s := range in.SrcOperands() {
		if s.IsReg() {
			if err := check(s.Reg); err != nil {
				return err
			}
		}
	}
	return nil
}

// Disassemble renders the whole program with PCs and labels.
func (p *Program) Disassemble() string {
	labelAt := make(map[int][]string)
	for name, pc := range p.Labels {
		labelAt[pc] = append(labelAt[pc], name)
	}
	// Co-located labels must list in a stable order: the listing is a
	// triage artifact (sweep reports, regression minimization) and the
	// same program has to disassemble to the same bytes every time.
	for _, names := range labelAt {
		sort.Strings(names)
	}
	var b strings.Builder
	fmt.Fprintf(&b, ".kernel %s\n.vregs %d\n.sregs %d\n.lds %d\n", p.Name, p.NumVRegs, p.NumSRegs, p.LDSBytes)
	for pc := range p.Instrs {
		for _, l := range labelAt[pc] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "%4d:  %s\n", pc, p.Instrs[pc].String())
	}
	return b.String()
}

// Alias returns a new program value with p's content: it shares p's
// instructions and labels, which no one may modify, p's encoding and
// digest and p's decoded Table, which it decodes now if nothing has yet. Use it where
// programs are told apart by pointer but one content serves several of
// them.
func (p *Program) Alias() *Program {
	a := &Program{Name: p.Name, Instrs: p.Instrs, NumVRegs: p.NumVRegs,
		NumSRegs: p.NumSRegs, LDSBytes: p.LDSBytes, Labels: p.Labels}
	a.enc.Store(p.enc.Load())
	a.table.Store(p.Table())
	return a
}

// Clone returns a deep copy (instruction slice and labels are fresh).
func (p *Program) Clone() *Program {
	c := &Program{
		Name:     p.Name,
		Instrs:   make([]Instruction, len(p.Instrs)),
		NumVRegs: p.NumVRegs,
		NumSRegs: p.NumSRegs,
		LDSBytes: p.LDSBytes,
		Labels:   make(map[string]int, len(p.Labels)),
	}
	copy(c.Instrs, p.Instrs)
	for k, v := range p.Labels {
		c.Labels[k] = v
	}
	return c
}
