package preempt

import (
	"fmt"
	"slices"

	"ctxback/internal/artifact"
	"ctxback/internal/cfg"
	"ctxback/internal/isa"
	"ctxback/internal/liveness"
	"ctxback/internal/sim"
	"ctxback/internal/trace"
)

// flushTech implements SM-flushing (Park et al., Chimera [11]; paper
// §II-B): on a preemption signal the running warps are simply dropped —
// nothing is saved beyond the warp's launch state — and resume restarts
// them from the first instruction. Near-zero preemption latency, but all
// completed work is wasted; the idempotence requirement is the whole
// kernel (checked at compile time: flushing is refused for kernels whose
// first region hazard would be replayed, e.g. the atomics in HS).
type flushTech struct {
	prog *isa.Program
	*flushStatic
	// entry[warp ID] snapshots the warp's launch-time context, captured
	// by its first Hook call; it grows on demand.
	entry []*sim.SavedContext
}

// NewSMFlush compiles the SM-flushing technique. It refuses kernels
// that violate the idempotence condition (atomics would be re-applied by
// the restart).
func NewSMFlush(prog *isa.Program) (Technique, error) {
	t, err := newFlushTech(prog)
	if err != nil {
		return nil, err
	}
	if !t.flushable {
		return nil, fmt.Errorf("preempt: kernel %q is not idempotent (atomics or aliasing global load/store); SM-flushing is unsound", prog.Name)
	}
	return t, nil
}

func newFlushTech(prog *isa.Program) (*flushTech, error) {
	fs, err := flushStaticFor(prog)
	if err != nil {
		return nil, err
	}
	return &flushTech{prog: prog, flushStatic: fs}, nil
}

// flushStatic is the immutable part of an SM-flush compilation, shared
// read-only across episodes (the per-warp entry snapshots stay on the
// technique instance).
type flushStatic struct {
	// flushable reports whether restarting from scratch is sound: no
	// atomics (re-running one would double-apply) and no global load
	// that may alias a global store (the restart would observe its
	// dropped incarnation's writes instead of the launch image).
	flushable bool
	// entryRegs is the context a restart needs: the kernel arguments in
	// scalar registers plus EXEC.
	entryRegs isa.RegSet
	// code holds one table per variant, at PC 0 where every routine
	// starts or restarts the kernel: the entry snapshot hook, the save of
	// a warp preempted before its first issue, and the restart.
	code *streams
}

// flushStaticFor is prog's flush static analysis: the soundness verdict
// and the entry register set, shared by SM-flushing and Chimera.
func flushStaticFor(prog *isa.Program) (*flushStatic, error) {
	return memo(progKey(kindFlush, prog),
		func() (*flushStatic, error) {
			if err := prog.Validate(); err != nil {
				return nil, err
			}
			g, err := cfg.Build(prog)
			if err != nil {
				return nil, err
			}
			flushable := flushSound(prog)
			// The entry context is every register a warp needs at pc 0:
			// its kernel arguments. Conservatively snapshot all scalar
			// registers plus EXEC (vector registers start zeroed by the
			// launch contract and are re-zeroed explicitly on resume).
			// The launch contract also zeroes VCC and SCC; a restart
			// must reproduce that whenever the kernel can observe it —
			// i.e. some path from the first instruction reads the flag
			// before writing it — rather than leave whatever the resume
			// poison put there.
			var regs isa.RegSet
			for i := 0; i < prog.NumSRegs; i++ {
				regs.Add(isa.S(i))
			}
			regs.Add(isa.Exec)
			vccObs, sccObs := launchFlagsObservable(g)
			if vccObs {
				regs.Add(isa.VCC)
			}
			if sccObs {
				regs.Add(isa.SCC)
			}
			return &flushStatic{flushable: flushable, entryRegs: regs, code: newStreams(prog, 3, 1)}, nil
		},
		func(s *flushStatic) []byte {
			w := artifact.NewWriter()
			w.Bool(s.flushable)
			liveness.EncodeRegSet(s.entryRegs, w)
			return w.Data()
		},
		func(p []byte) (*flushStatic, error) {
			r := artifact.NewReader(p)
			s := &flushStatic{flushable: r.Bool(), entryRegs: liveness.DecodeRegSet(r), code: newStreams(prog, 3, 1)}
			return s, r.Close()
		})
}

func (t *flushTech) Kind() Kind   { return SMFlush }
func (t *flushTech) Name() string { return SMFlush.String() }

// PhaseNames: flushing saves nothing (warps are dropped) and resume
// restarts the kernel from its first instruction.
func (t *flushTech) PhaseNames() trace.PhaseNames {
	return trace.PhaseNames{Drain: "drain", Save: "drop", Restore: "restore", Replay: "restart"}
}

// Instruments: every warp of the flushed program takes its entry
// snapshot at its first instruction.
func (t *flushTech) Instruments(prog *isa.Program) bool { return prog == t.prog }

// Hook captures the launch-time context at each warp's first
// instruction; it costs a handful of scalar saves once per warp.
func (t *flushTech) Hook(w *sim.Warp, pc int) ([]isa.Decoded, *sim.SavedContext) {
	if w.Prog != t.prog || warpAt(t.entry, w.ID) != nil {
		return nil, nil
	}
	buf := sim.NewSavedContext()
	*warpSlot(&t.entry, w.ID) = buf
	// The warp's LDS share is part of its launch state too: a restart
	// must find it zeroed, not holding whatever the resume poison left.
	// The launch image is all zeros by contract, so the buffer is
	// populated directly — writing zeros needs no save traffic.
	if hi := w.LDSShareHi - w.LDSShareLo; hi > 0 {
		buf.LDS = make([]uint32, hi/4)
		buf.LDSLo = w.LDSShareLo
	}
	return t.code.at(onHook, 0, func() []isa.Instruction {
		return slices.Concat(saveSet(t.entryRegs), []isa.Instruction{{Op: isa.CtxSavePC, Target: 0}})
	}), buf
}

// PreemptRoutine: drop immediately. The vector state and LDS are
// discarded — restarting regenerates them. A warp that never issued an
// instruction has nothing captured either; the resume falls back to a
// (tiny) live save at pc 0.
func (t *flushTech) PreemptRoutine(w *sim.Warp) []isa.Decoded {
	if warpAt(t.entry, w.ID) != nil {
		return dropCode
	}
	return t.code.at(onPreempt, 0, func() []isa.Instruction {
		return preemptCode(t.prog, saveSet(t.entryRegs), 0)
	})
}

// ResumeRoutine restarts the warp from its entry snapshot, or from the
// fallback save of a warp that never issued, which holds the same launch
// values.
func (t *flushTech) ResumeRoutine(w *sim.Warp) ([]isa.Decoded, *sim.SavedContext) {
	return t.code.at(onResume, 0, func() []isa.Instruction {
		// Vector registers restart zeroed, matching the launch contract
		// (the moves run after the EXEC restore, so every lane is
		// written).
		return resumeCode(t.prog, append(loadSet(t.entryRegs), zeroVRegs(t.prog)...), 0)
	}), warpAt(t.entry, w.ID)
}

// launchFlagsObservable reports, per condition flag, whether the kernel
// can observe its launch value: some path from the first instruction
// reaches a read of VCC (resp. SCC) with no full write in between. When
// false, every read is dominated by a write, so a restart reproduces the
// flag deterministically and need not restore the launch zero.
func launchFlagsObservable(g *cfg.Graph) (vcc, scc bool) {
	prog := g.Prog
	// Forward may-analysis: state is "the flag may still hold its launch
	// value". A read in that state makes the launch value observable; a
	// write clears the state for the rest of the path. Meet is OR.
	type state struct{ vcc, scc bool }
	nb := len(g.Blocks)
	in := make([]state, nb)
	seen := make([]bool, nb)
	entry := 0
	for bi := range g.Blocks {
		if g.Blocks[bi].Start == 0 {
			entry = bi
			break
		}
	}
	in[entry] = state{vcc: true, scc: true}
	seen[entry] = true
	work := []int{entry}
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		st := in[bi]
		b := &g.Blocks[bi]
		for pc := b.Start; pc < b.End; pc++ {
			instr := prog.At(pc)
			uses, defs := instr.UseSet(), instr.DefSet()
			if st.vcc && uses.Has(isa.VCC) {
				vcc = true
			}
			if st.scc && uses.Has(isa.SCC) {
				scc = true
			}
			if defs.Has(isa.VCC) {
				st.vcc = false
			}
			if defs.Has(isa.SCC) {
				st.scc = false
			}
		}
		for _, s := range b.Succs {
			merged := state{vcc: in[s].vcc || st.vcc, scc: in[s].scc || st.scc}
			if !seen[s] || merged != in[s] {
				seen[s] = true
				in[s] = merged
				work = append(work, s)
			}
		}
	}
	return vcc, scc
}

// flushSound reports whether restarting the kernel from its first
// instruction is idempotent. Two hazard classes break it:
//
//   - atomics: the restart would apply them a second time;
//   - a global load that may alias any global store: the restart runs
//     against the device memory its dropped incarnation already mutated,
//     not the launch image, so such a load can observe stale own writes
//     (LDS is exempt — the warp's share is re-zeroed on restart).
func flushSound(prog *isa.Program) bool {
	var loads, stores []*isa.Instruction
	for pc := 0; pc < prog.Len(); pc++ {
		in := prog.At(pc)
		switch {
		case in.Op.Info().Class == isa.ClassAtomic:
			return false
		case in.Op == isa.VGLoad || in.Op == isa.SGLoad:
			loads = append(loads, in)
		case in.Op == isa.VGStore || in.Op == isa.SGStore:
			stores = append(stores, in)
		}
	}
	for _, l := range loads {
		for _, s := range stores {
			if isa.MayAlias(l, s) {
				return false
			}
		}
	}
	return true
}

// zeroVRegs re-establishes the launch contract for the vector file.
func zeroVRegs(prog *isa.Program) []isa.Instruction {
	out := make([]isa.Instruction, 0, prog.NumVRegs)
	for i := 0; i < prog.NumVRegs; i++ {
		out = append(out, isa.Instruction{Op: isa.VMov, Dst: isa.V(i),
			Srcs: [isa.MaxSrcs]isa.Operand{isa.Imm(0)}})
	}
	return out
}

func (t *flushTech) StaticContextBytes(pc int) int { return t.entryRegs.ContextBytes() }

func (t *flushTech) EstPreemptCycles(pc int) int64 { return estFixedCycles }

// chimeraTech implements Chimera-style collaborative preemption
// (Park et al. [11], with CTXBack replacing the traditional context
// switch, as the paper's §VI suggests): per warp, at preemption time,
// pick the cheapest sound mechanism given the warp's progress —
//
//   - flush (drop & restart) when the warp has made little progress and
//     the kernel is idempotent: latency ~0, waste small;
//   - CTXBack context switch otherwise: bounded latency, no waste.
type chimeraTech struct {
	prog  *isa.Program
	flush *flushTech
	ctx   Technique
	// flushBudget is the progress (retired instructions) below which
	// dropping wastes less than a context switch would cost.
	flushBudget int64
}

// NewChimera compiles the Chimera selector over SM-flushing and CTXBack.
func NewChimera(prog *isa.Program) (Technique, error) {
	// Chimera keeps the flush arm even for non-flushable kernels — the
	// selector simply never chooses it there.
	fl, err := newFlushTech(prog)
	if err != nil {
		return nil, err
	}
	ctx, err := NewCTXBack(prog)
	if err != nil {
		return nil, err
	}
	// A context switch moves roughly the mean CTXBack context both ways;
	// value that traffic in instruction-issue terms to bound how much
	// re-execution a flush may waste.
	var meanCtx int64
	for pc := 0; pc < prog.Len(); pc++ {
		meanCtx += int64(ctx.StaticContextBytes(pc))
	}
	meanCtx /= int64(prog.Len())
	budget := meanCtx / 8 // ~bytes per re-executed instruction equivalent
	if budget < 16 {
		budget = 16
	}
	return &chimeraTech{prog: prog, flush: fl, ctx: ctx, flushBudget: budget}, nil
}

func (t *chimeraTech) Kind() Kind   { return Chimera }
func (t *chimeraTech) Name() string { return Chimera.String() }

// PhaseNames: per warp Chimera either drops (flush) or switches (ctx), so
// the episode-level phases keep the flush-flavored labels for the mixed
// case.
func (t *chimeraTech) PhaseNames() trace.PhaseNames {
	return trace.PhaseNames{Drain: "drain", Save: "drop-or-save", Restore: "restore", Replay: "restart"}
}

// useFlush reports whether a warp preempted at progress dyn (retired
// instructions) is flushed. Flushing inside a mixed-mode episode is only
// sound for LDS-free kernels — a context-switched warp restores only its
// own LDS share, so a flushed peer could lose cross-warp LDS state its
// replay does not regenerate.
func (t *chimeraTech) useFlush(dyn int64) bool {
	return t.flush.flushable && t.prog.LDSBytes == 0 && dyn <= t.flushBudget
}

func (t *chimeraTech) PreemptRoutine(w *sim.Warp) []isa.Decoded {
	if t.useFlush(w.DynCount) {
		return t.flush.PreemptRoutine(w)
	}
	return t.ctx.PreemptRoutine(w)
}

func (t *chimeraTech) ResumeRoutine(w *sim.Warp) ([]isa.Decoded, *sim.SavedContext) {
	// Flushing resets DynCount, so the choice is made again from the
	// progress the record kept at the signal.
	if t.useFlush(w.Record().DynAtSignal) {
		return t.flush.ResumeRoutine(w)
	}
	return t.ctx.ResumeRoutine(w)
}

func (t *chimeraTech) Hook(w *sim.Warp, pc int) ([]isa.Decoded, *sim.SavedContext) {
	// Entry snapshots (flush) have priority on the very first
	// instruction; OSRB backups run everywhere else.
	if code, buf := t.flush.Hook(w, pc); code != nil {
		return code, buf
	}
	return t.ctx.Hook(w, pc)
}

// Instruments: either delegate may hook.
func (t *chimeraTech) Instruments(prog *isa.Program) bool {
	return t.flush.Instruments(prog) || t.ctx.Instruments(prog)
}

func (t *chimeraTech) StaticContextBytes(pc int) int { return t.ctx.StaticContextBytes(pc) }

func (t *chimeraTech) EstPreemptCycles(pc int) int64 { return t.ctx.EstPreemptCycles(pc) }
