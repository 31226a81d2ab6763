// Package preempt implements the six preemption techniques the paper
// evaluates (§V), all behind one interface pluggable into the simulator:
//
//	BASELINE — the Linux-driver approach: swap every allocated register
//	           and the LDS, blind to liveness.
//	LIVE     — swap only the live registers at the preempted PC [4].
//	CKPT     — checkpoint-based fault-tolerance mechanisms adapted to
//	           context switching [5],[6]: periodic snapshots during
//	           normal execution, drop on preemption, replay on resume.
//	CS-Defer — keep executing until a small-context instruction, then
//	           swap [4].
//	CTXBack  — this paper: flash back to a preceding instruction.
//	CTXBack+CS-Defer — per-PC selection by estimated preemption latency.
package preempt

import (
	"fmt"
	"slices"
	"sync/atomic"

	"ctxback/internal/isa"
	"ctxback/internal/sim"
)

// Kind enumerates the techniques.
type Kind int

const (
	Baseline Kind = iota
	Live
	Ckpt
	CSDefer
	CTXBack
	Combined
	// SMFlush and Chimera are extensions beyond the paper's six evaluated
	// techniques: SM-flushing [11] and a Chimera-style selector with
	// CTXBack as its context-switch arm (paper §VI).
	SMFlush
	Chimera
	numKinds
)

func (k Kind) String() string {
	switch k {
	case Baseline:
		return "BASELINE"
	case Live:
		return "LIVE"
	case Ckpt:
		return "CKPT"
	case CSDefer:
		return "CS-Defer"
	case CTXBack:
		return "CTXBack"
	case Combined:
		return "CTXBack+CS-Defer"
	case SMFlush:
		return "SM-flushing"
	case Chimera:
		return "Chimera+CTXBack"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds lists every technique in the paper's presentation order.
func Kinds() []Kind {
	return []Kind{Baseline, Live, Ckpt, CSDefer, CTXBack, Combined}
}

// ExtendedKinds appends the extension techniques (SM-flushing, Chimera)
// to the paper's six. SM-flushing construction fails on non-idempotent
// kernels; callers must tolerate that.
func ExtendedKinds() []Kind {
	return append(Kinds(), SMFlush, Chimera)
}

// Relocatable reports whether kind's runtime keeps all per-warp mutable
// state inside the device (so a whole-device snapshot captures it and a
// FRESH technique instance compiled from the same program can drive the
// restored device). CKPT keeps last-checkpoint buffers and SM-flushing
// (and Chimera, which wraps it) keeps flush-entry aliases in the
// technique object itself — those buffers alias live SavedContexts the
// snapshot cannot re-link, so their jobs fail over by deterministic
// re-run instead of context flashback.
func Relocatable(kind Kind) bool {
	switch kind {
	case Baseline, Live, CSDefer, CTXBack, Combined:
		return true
	}
	return false
}

// RelocatableKinds lists the techniques whose episodes survive a
// snapshot/restore trip, in presentation order.
func RelocatableKinds() []Kind {
	var out []Kind
	for _, k := range ExtendedKinds() {
		if Relocatable(k) {
			out = append(out, k)
		}
	}
	return out
}

// Technique is a compiled preemption mechanism for one kernel. A
// Technique carries per-run state (CKPT snapshots); construct a fresh one
// per simulation run.
type Technique interface {
	sim.Runtime
	Kind() Kind
	// StaticContextBytes is the register context swapped when preemption
	// arrives at pc (the Fig 7 metric, excluding the LDS share and the PC
	// word which are common to all techniques). For CKPT it is the
	// checkpoint size of pc's basic block.
	StaticContextBytes(pc int) int
	// EstPreemptCycles is the compile-time preemption-latency estimate
	// used to combine techniques (paper §IV-C). It deliberately ignores
	// pipeline stalls.
	EstPreemptCycles(pc int) int64
}

// New compiles technique kind for prog. CKPT uses the paper's interval
// of 16 executions per basic block.
func New(kind Kind, prog *isa.Program) (Technique, error) {
	switch kind {
	case Baseline:
		return NewBaseline(prog)
	case Live:
		return NewLive(prog)
	case Ckpt:
		return NewCKPT(prog, DefaultCkptInterval)
	case CSDefer:
		return NewCSDefer(prog)
	case CTXBack:
		return NewCTXBack(prog)
	case Combined:
		return NewCombined(prog)
	case SMFlush:
		return NewSMFlush(prog)
	case Chimera:
		return NewChimera(prog)
	}
	return nil, fmt.Errorf("preempt: unknown technique %v", kind)
}

// --- shared codegen helpers ---

func saveReg(r isa.Reg, slot int32) isa.Instruction {
	op := isa.CtxSaveS
	switch r.Class {
	case isa.RegVector:
		op = isa.CtxSaveV
	case isa.RegSpecial:
		op = isa.CtxSaveSpec
	}
	return isa.Instruction{Op: op, Srcs: [isa.MaxSrcs]isa.Operand{isa.R(r)}, Imm0: slot}
}

func loadReg(r isa.Reg, slot int32) isa.Instruction {
	op := isa.CtxLoadS
	switch r.Class {
	case isa.RegVector:
		op = isa.CtxLoadV
	case isa.RegSpecial:
		op = isa.CtxLoadSpec
	}
	return isa.Instruction{Op: op, Dst: r, Imm0: slot}
}

// regSlot gives every architectural register a stable slot id within its
// class space.
func regSlot(r isa.Reg) int32 { return int32(r.Index) }

// saveSet emits saves for a register set in deterministic order.
func saveSet(regs isa.RegSet) []isa.Instruction {
	var out []isa.Instruction
	for _, r := range regs.Sorted() {
		out = append(out, saveReg(r, regSlot(r)))
	}
	return out
}

func loadSet(regs isa.RegSet) []isa.Instruction {
	var out []isa.Instruction
	for _, r := range regs.Sorted() {
		out = append(out, loadReg(r, regSlot(r)))
	}
	return out
}

// A memo keeps every routine and hook body it decodes for the life of
// the process, so the builders below size them exactly (slices.Concat).

// preemptCode is a preemption routine: body, then the common tail of
// LDS share save, resume-PC record and slot release.
func preemptCode(prog *isa.Program, body []isa.Instruction, resumePC int) []isa.Instruction {
	return slices.Concat(body, ldsOp(prog, isa.CtxSaveLDS),
		[]isa.Instruction{{Op: isa.CtxSavePC, Target: resumePC}, {Op: isa.CtxExit}})
}

// resumeCode is a resume routine: the LDS restore (re-executed loads may
// read it), body, then the jump back into the kernel.
func resumeCode(prog *isa.Program, body []isa.Instruction, resumePC int) []isa.Instruction {
	return slices.Concat(ldsOp(prog, isa.CtxLoadLDS), body,
		[]isa.Instruction{{Op: isa.CtxResume, Target: resumePC}})
}

// ldsOp is op, an LDS share save or load, when prog has an LDS share.
func ldsOp(prog *isa.Program, op isa.Op) []isa.Instruction {
	if prog.LDSBytes == 0 {
		return nil
	}
	return []isa.Instruction{{Op: op}}
}

// dropCode is the preemption routine of a warp whose context is already
// saved elsewhere (a checkpoint, a flush entry image): release the slot.
var dropCode = isa.DecodeStream([]isa.Instruction{{Op: isa.CtxExit}}, 0, 0)

// streams memoizes the decoded routine and hook bodies a technique hands
// the device for one program content: table (v, pc) is its variant v
// (onPreempt, onResume, onHook, or CS-Defer's onDefer) at PC pc. It
// hangs off the technique's memoized static compile, so every instance
// on a content-equal program shares it. A table is built on first use
// and published by compare-and-swap: racing first users each build one,
// and all return the one that won.
type streams struct {
	nv, ns, pcs int
	tabs        []atomic.Pointer[[]isa.Decoded]
}

// Variants of a streams memo: the preemption routine, the resume routine
// and the hook body at a PC, and CS-Defer's deferring preemption routine,
// which shares LIVE's memo.
const (
	onPreempt = iota
	onResume
	onHook
	onDefer
)

// newStreams returns an empty memo of variants tables of pcs PCs each,
// decoded for a warp of prog.
func newStreams(prog *isa.Program, variants, pcs int) *streams {
	return &streams{nv: prog.AllocatedVRegs(), ns: prog.AllocatedSRegs(), pcs: pcs,
		tabs: make([]atomic.Pointer[[]isa.Decoded], variants*pcs)}
}

// at returns table (v, pc), decoding the body build returns on first use.
func (s *streams) at(v, pc int, build func() []isa.Instruction) []isa.Decoded {
	p := &s.tabs[v*s.pcs+pc]
	if t := p.Load(); t != nil {
		return *t
	}
	code := isa.DecodeStream(build(), s.nv, s.ns)
	p.CompareAndSwap(nil, &code)
	return *p.Load()
}

// warpAt returns s[id], the zero value past its end: per-warp state a
// technique keeps by warp ID, before the warp has any.
func warpAt[T any](s []T, id int) T {
	var zero T
	if id < len(s) {
		return s[id]
	}
	return zero
}

// warpSlot returns &(*s)[id], growing *s to hold it.
func warpSlot[T any](s *[]T, id int) *T {
	if id >= len(*s) {
		*s = append(*s, make([]T, id+1-len(*s))...)
	}
	return &(*s)[id]
}

// latency/bandwidth constants for the compile-time estimator (paper
// §IV-C). Deliberately stall-blind: only issue cycles and context
// traffic are modeled, reproducing the underestimation discussed in
// §V-B.
const (
	estBytesPerCycle = 2.0
	estFixedCycles   = 400
)

func estTrafficCycles(bytes int) int64 {
	return estFixedCycles + int64(float64(bytes)/estBytesPerCycle)
}
