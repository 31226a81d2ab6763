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

// finishPreempt appends the common tail: LDS share save, resume-PC
// record, slot release.
func finishPreempt(w *sim.Warp, body []isa.Instruction, resumePC int) []isa.Instruction {
	out := append([]isa.Instruction(nil), body...)
	if w.Prog.LDSBytes > 0 {
		out = append(out, isa.Instruction{Op: isa.CtxSaveLDS})
	}
	out = append(out,
		isa.Instruction{Op: isa.CtxSavePC, Target: resumePC},
		isa.Instruction{Op: isa.CtxExit},
	)
	return out
}

// finishResume prepends the LDS restore (re-executed loads may read it)
// and appends the jump back into the kernel.
func finishResume(w *sim.Warp, body []isa.Instruction, resumePC int) []isa.Instruction {
	var out []isa.Instruction
	if w.Prog.LDSBytes > 0 {
		out = append(out, isa.Instruction{Op: isa.CtxLoadLDS})
	}
	out = append(out, body...)
	out = append(out, isa.Instruction{Op: isa.CtxResume, Target: resumePC})
	return out
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

// techHookAt queries a wrapped technique's hook predicate, defaulting
// to true (hook possible anywhere) when it does not implement
// sim.HookPredicate — the conservative answer sim.Instruments gives for
// predicate-less runtimes anyway.
func techHookAt(t Technique, w *sim.Warp, pc int) bool {
	if hp, ok := t.(sim.HookPredicate); ok {
		return hp.HookAt(w, pc)
	}
	return true
}
