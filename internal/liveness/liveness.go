// Package liveness implements backward dataflow liveness analysis and
// block-local use-define chains over isa programs. CTXBack uses the
// per-instruction live-in sets as the register context of each
// instruction (paper §III-A: "an instruction's register context is just
// its live-in registers") and the use-define chains to determine which
// instruction overwrote a register.
//
// Vector writes are EXEC-masked: an instruction executed under a partial
// mask only overwrites the active lanes, so the destination's previous
// value flows through on the inactive lanes. Such a write is a partial
// definition — it must not kill liveness when a masked-out lane can still
// be observed. Two cooperating analyses keep this precise:
//
//   - a forward EXEC-fullness pass proves, per PC, that the mask is all
//     ones, tracking scalar registers that hold a saved full mask so the
//     s_and_saveexec_vcc / s_setexec reconvergence idiom re-proves
//     fullness after a divergent region;
//   - the backward pass runs a three-state lattice per vector register
//     (dead < live-same-mask < live-escaped): a value escapes when its
//     liveness crosses an EXEC write or a lane-indexed read (v_readlane
//     ignores the mask). A masked definition kills only when the mask is
//     provably full or the register has not escaped — every observer then
//     reads only lanes the definition wrote.
package liveness

import (
	"ctxback/internal/cfg"
	"ctxback/internal/isa"
)

// Info holds the analysis results for one program.
type Info struct {
	Graph *cfg.Graph
	// LiveIn[pc] is the set of registers live immediately before pc
	// executes — the register context R of that instruction.
	LiveIn []isa.RegSet
	// LiveOut[pc] is the set of registers live immediately after pc.
	LiveOut []isa.RegSet
	// ExecFullIn[pc] reports that EXEC is provably all ones when the
	// instruction at pc issues (vector defs there are full kills).
	ExecFullIn []bool
	// EscIn[pc] holds the vector registers whose masked-out lanes may
	// still be observed at or below pc (their liveness crosses an EXEC
	// write or a lane-indexed read). For a live register absent from
	// this set, every downstream read happens under the mask in force at
	// pc — its inactive lanes are dead.
	EscIn []isa.RegSet
}

// Analyze runs liveness analysis for g's program. All register sets are
// isa.RegSet bitsets: the fixpoint compares them with == and copies them
// by assignment.
func Analyze(g *cfg.Graph) *Info {
	p := g.Prog
	n := p.Len()
	info := &Info{
		Graph:      g,
		LiveIn:     make([]isa.RegSet, n),
		LiveOut:    make([]isa.RegSet, n),
		ExecFullIn: execFullness(g),
		EscIn:      make([]isa.RegSet, n),
	}

	// Pre-compute per-instruction use/def sets.
	uses := make([]isa.RegSet, n)
	defs := make([]isa.RegSet, n)
	for pc := 0; pc < n; pc++ {
		uses[pc] = p.At(pc).UseSet()
		defs[pc] = p.At(pc).DefSet()
	}

	// step applies pc's backward transfer to (live, esc) in place,
	// turning the state below the instruction into the state above it.
	// esc ⊆ live holds the vector registers whose masked-out lanes may
	// still be observed below.
	var buf []isa.Reg
	step := func(pc int, live, esc *isa.RegSet) {
		in := p.At(pc)
		// Crossing an EXEC write: the mask above differs from the mask
		// below, so defs above must preserve the masked-out lanes of
		// everything live here.
		if defs[pc].Has(isa.Exec) {
			esc.AddAll(live.OfClass(isa.RegVector))
		}
		buf = defs[pc].Append(buf[:0])
		for _, r := range buf {
			if killsDef(in, r, info.ExecFullIn[pc], esc.Has(r)) {
				live.Remove(r)
				esc.Remove(r)
			}
			// A non-killing partial def leaves r live: the inactive
			// lanes' value flows in from above.
		}
		live.AddAll(uses[pc])
		// v_readlane reads one lane regardless of EXEC; the source's
		// masked-out lanes are observable.
		if in.Op == isa.VReadLane && in.Srcs[0].IsReg() {
			esc.Add(in.Srcs[0].Reg)
		}
	}

	// Block-level gen/kill over the paired (live, escaped) state.
	nb := len(g.Blocks)
	blockIn := make([]isa.RegSet, nb)
	blockOut := make([]isa.RegSet, nb)
	escIn := make([]isa.RegSet, nb)
	escOut := make([]isa.RegSet, nb)

	// Iterate to fixpoint (reverse order speeds convergence).
	changed := true
	for changed {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			b := &g.Blocks[bi]
			var out, esc isa.RegSet
			for _, s := range b.Succs {
				out.AddAll(blockIn[s])
				esc.AddAll(escIn[s])
			}
			in, escAbove := out, esc
			for pc := b.End - 1; pc >= b.Start; pc-- {
				step(pc, &in, &escAbove)
			}
			if out != blockOut[bi] || in != blockIn[bi] ||
				esc != escOut[bi] || escAbove != escIn[bi] {
				changed = true
				blockOut[bi] = out
				blockIn[bi] = in
				escOut[bi] = esc
				escIn[bi] = escAbove
			}
		}
	}

	// Per-instruction sets from the block solutions.
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		live, esc := blockOut[bi], escOut[bi]
		for pc := b.End - 1; pc >= b.Start; pc-- {
			info.LiveOut[pc] = live
			step(pc, &live, &esc)
			info.LiveIn[pc] = live
			info.EscIn[pc] = esc
		}
	}
	return info
}

// killsDef reports whether in's write to r fully overwrites it, ending
// the previous value's liveness. Scalar and special registers are always
// whole-register writes. For vector destinations, EXEC-masked per-lane
// ops are full kills only when the mask is provably full or the value
// has not escaped the mask region; v_writelane (one lane, mask-ignoring)
// never kills.
func killsDef(in *isa.Instruction, r isa.Reg, execFull, escaped bool) bool {
	if !r.IsVector() {
		return true
	}
	oi := in.Op.Info()
	switch {
	case in.Op == isa.VWriteLane:
		return false
	case oi.DstVec && oi.ReadsExec && r == in.Dst:
		return execFull || !escaped
	default:
		// Whole-register vector writes (ctx_load_v).
		return true
	}
}

// execFullness computes, per PC, whether EXEC is provably all ones when
// the instruction at that PC issues. Warps launch with a full mask; the
// forward pass tracks scalar registers known to hold a full-mask value
// so the save/restore reconvergence idiom (s_and_saveexec_vcc save ...
// s_setexec save) proves fullness again after a divergent region.
func execFullness(g *cfg.Graph) []bool {
	p := g.Prog
	n := p.Len()
	full := make([]bool, n)
	nb := len(g.Blocks)
	if n == 0 || nb == 0 {
		return full
	}

	type state struct {
		full     bool
		fullRegs isa.RegSet // scalar regs holding an all-ones mask
	}
	// meet narrows dst by src; reports whether dst changed.
	meet := func(dst *state, src state) bool {
		old := *dst
		dst.full = dst.full && src.full
		lost := dst.fullRegs
		lost.RemoveAll(src.fullRegs)
		dst.fullRegs.RemoveAll(lost)
		return *dst != old
	}

	// fullVal reports whether operand o is known to be an all-ones mask.
	fullVal := func(st *state, o isa.Operand) bool {
		if o.IsReg() {
			return st.fullRegs.Has(o.Reg)
		}
		// Scalar immediates sign-extend (uint64(int64(int32(imm)))).
		return uint64(int64(int32(o.Imm))) == ^uint64(0)
	}
	stepExec := func(st *state, in *isa.Instruction) {
		oi := in.Op.Info()
		switch in.Op {
		case isa.SAndSaveExecVCC:
			// dst = old exec; exec &= vcc (full only if vcc is, unknown).
			if st.full {
				st.fullRegs.Add(in.Dst)
			} else {
				st.fullRegs.Remove(in.Dst)
			}
			st.full = false
		case isa.SSetExec:
			st.full = fullVal(st, in.Srcs[0])
		case isa.SOrExec:
			st.full = st.full || fullVal(st, in.Srcs[0])
		case isa.SGetExec:
			if st.full {
				st.fullRegs.Add(in.Dst)
			} else {
				st.fullRegs.Remove(in.Dst)
			}
		case isa.SMov:
			if fullVal(st, in.Srcs[0]) {
				st.fullRegs.Add(in.Dst)
			} else {
				st.fullRegs.Remove(in.Dst)
			}
		default:
			if oi.WritesExec || (oi.HasDst && in.Dst == isa.Exec) {
				st.full = false
			}
			if oi.HasDst && in.Dst.Valid() && in.Dst != isa.Exec {
				st.fullRegs.Remove(in.Dst)
			}
		}
	}

	in := make([]state, nb)
	seen := make([]bool, nb)
	entry := 0
	for bi := range g.Blocks {
		if g.Blocks[bi].Start == 0 {
			entry = bi
			break
		}
	}
	in[entry] = state{full: true}
	seen[entry] = true
	work := []int{entry}
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		b := &g.Blocks[bi]
		st := in[bi]
		for pc := b.Start; pc < b.End; pc++ {
			stepExec(&st, p.At(pc))
		}
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				in[s] = st
				work = append(work, s)
			} else if meet(&in[s], st) {
				work = append(work, s)
			}
		}
	}

	// Materialize per-PC fullness. Unreached blocks stay pessimistic.
	for bi := range g.Blocks {
		if !seen[bi] {
			continue
		}
		b := &g.Blocks[bi]
		st := in[bi]
		for pc := b.Start; pc < b.End; pc++ {
			full[pc] = st.full
			stepExec(&st, p.At(pc))
		}
	}
	return full
}

// Context returns the register context of the instruction at pc — its
// live-in registers (a copy, safe to mutate).
func (in *Info) Context(pc int) isa.RegSet {
	return in.LiveIn[pc]
}

// ContextBytes returns the byte size of pc's register context.
func (in *Info) ContextBytes(pc int) int {
	return in.LiveIn[pc].ContextBytes()
}

// LastDefIn returns the PC of the most recent write to r before pc
// within pc's basic block; ok=false when r has no in-block write before
// pc (its value flows in from outside the block). This is the
// block-local use-define chain; a masked vector write counts, since it
// is the instruction that overwrote the active lanes. It walks the block
// backwards rather than storing per-PC tables: outside the codec only
// tests ask.
func (in *Info) LastDefIn(pc int, r isa.Reg) (def int, ok bool) {
	var buf [4]isa.Reg
	for d := pc - 1; d >= in.Graph.BlockOf(pc).Start; d-- {
		for _, x := range in.Graph.Prog.At(d).Defs(buf[:0]) {
			if x == r {
				return d, true
			}
		}
	}
	return 0, false
}

// MinContextPC returns the PC with the smallest live-in context within
// [start, end) along with that context's byte size. It is the "minimum
// possible context size" reference the paper attributes to CKPT.
func (in *Info) MinContextPC(start, end int) (pc, bytes int) {
	pc = start
	bytes = in.ContextBytes(start)
	for i := start + 1; i < end; i++ {
		if b := in.ContextBytes(i); b < bytes {
			pc, bytes = i, b
		}
	}
	return pc, bytes
}
