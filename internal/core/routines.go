package core

import (
	"sort"

	"ctxback/internal/isa"
)

// slotLayout assigns context-buffer slot ids to the values a plan saves.
// Vector, scalar and special registers live in separate id spaces (they
// use different context ops), so ids may repeat across spaces. A
// routine saves a few dozen values at most, so a linear scan beats a
// map.
type slotLayout struct {
	next  [isa.RegSpecial + 1]int32 // by class
	slots []assignedSlot
}

type assignedSlot struct {
	key slotKey
	id  int32
}

// lookup returns k's slot id, if one was assigned.
func (l *slotLayout) lookup(k slotKey) (int32, bool) {
	for _, s := range l.slots {
		if s.key == k {
			return s.id, true
		}
	}
	return 0, false
}

func (l *slotLayout) slot(reg isa.Reg, ver version) int32 {
	k := slotKey{reg, ver}
	if id, ok := l.lookup(k); ok {
		return id
	}
	id := l.next[reg.Class]
	l.next[reg.Class] = id + 1
	l.slots = append(l.slots, assignedSlot{k, id})
	return id
}

func saveOp(reg isa.Reg) isa.Op {
	switch reg.Class {
	case isa.RegVector:
		return isa.CtxSaveV
	case isa.RegSpecial:
		return isa.CtxSaveSpec
	}
	return isa.CtxSaveS
}

func loadOp(reg isa.Reg) isa.Op {
	switch reg.Class {
	case isa.RegVector:
		return isa.CtxLoadV
	case isa.RegSpecial:
		return isa.CtxLoadSpec
	}
	return isa.CtxLoadS
}

func saveInstr(reg isa.Reg, slot int32) isa.Instruction {
	return isa.Instruction{Op: saveOp(reg), Srcs: [isa.MaxSrcs]isa.Operand{isa.R(reg)}, Imm0: slot}
}

func loadInstr(reg isa.Reg, slot int32) isa.Instruction {
	return isa.Instruction{Op: loadOp(reg), Dst: reg, Imm0: slot}
}

// GenRoutines lowers a plan into its dedicated preemption and resume
// routines (register part only — the technique layer appends LDS
// save/restore, CtxSavePC/CtxResume and CtxExit).
//
// Preemption routine order matters: result slots are saved from the
// physical file first, then reverts rewind the overwritten registers,
// then the flashback-point context is saved.
func GenRoutines(prog *isa.Program, plan *Plan) (preempt, resume []isa.Instruction) {
	var slots [32]assignedSlot
	layout := slotLayout{slots: slots[:0]}
	n := plan.WindowLen()

	// Size both routines up front: compiled routines are kept for the
	// life of the kernel, and append's growth would retain slack.
	reloads, reExecs, inits, osrbInits := 0, 0, 0, 0
	for _, regs := range plan.ReloadRegs {
		reloads += regs.Len()
	}
	for _, st := range plan.Status {
		if st == StatusReExec {
			reExecs++
		}
	}
	for _, src := range plan.InitRegs {
		switch src {
		case InitDirect, InitRevertPreempt:
			inits++
		case InitOSRB:
			osrbInits++
		}
	}
	preempt = make([]isa.Instruction, 0, reloads+len(plan.ResumeReverts)+len(plan.PreemptReverts)+inits+osrbInits)
	resume = make([]isa.Instruction, 0, inits+2*osrbInits+2*len(plan.ResumeReverts)+reExecs+reloads)

	// --- Preemption ---
	// 1. Result slots (reload + resume-revert sources), deterministic
	// order, deduplicated by the layout: a key is saved exactly when
	// this phase first assigns its slot.
	saveSlot := func(r isa.Reg, ver version) {
		if _, saved := layout.lookup(slotKey{r, ver}); !saved {
			preempt = append(preempt, saveInstr(r, layout.slot(r, ver)))
		}
	}
	reloadPCs := make([]int, 0, len(plan.ReloadRegs))
	for i := range plan.ReloadRegs {
		reloadPCs = append(reloadPCs, i)
	}
	sort.Ints(reloadPCs)
	var regs []isa.Reg
	for _, i := range reloadPCs {
		regs = plan.ReloadRegs[i].Append(regs[:0])
		for _, r := range regs {
			saveSlot(r, version(i))
		}
	}
	for _, rr := range plan.ResumeReverts {
		saveSlot(rr.SlotReg, rr.SlotVer)
	}
	// 2. Preemption-stage reverts.
	for _, pr := range plan.PreemptReverts {
		preempt = append(preempt, pr.Instr)
	}
	// 3. Flashback-point context.
	var initSet isa.RegSet
	for r := range plan.InitRegs {
		initSet.Add(r)
	}
	initRegs := initSet.Sorted()
	for _, r := range initRegs {
		switch plan.InitRegs[r] {
		case InitDirect, InitRevertPreempt:
			preempt = append(preempt, saveInstr(r, layout.slot(r, verInit)))
		case InitOSRB:
			// Key the slot by the spare register: the save/load ops use
			// the spare's (scalar) slot space, so keying by the backed-up
			// register would collide with unrelated scalar slots.
			spare := plan.OSRB[r]
			preempt = append(preempt, saveInstr(spare, layout.slot(spare, verInit)))
		case InitRevertResume:
			// Source slot already saved above.
		}
	}

	// --- Resume ---
	// 1. Flashback-point loads.
	for _, r := range initRegs {
		switch plan.InitRegs[r] {
		case InitDirect, InitRevertPreempt:
			resume = append(resume, loadInstr(r, layout.slot(r, verInit)))
		case InitOSRB:
			spare := plan.OSRB[r]
			resume = append(resume, loadInstr(spare, layout.slot(spare, verInit)))
			resume = append(resume, copyInstr(r, spare))
		}
	}
	// 2. Replay with reverts and reloads at their positions.
	for pos := 0; pos <= n; pos++ {
		for _, rr := range plan.ResumeReverts {
			if rr.Pos == pos {
				resume = append(resume, loadInstr(rr.SlotReg, layout.slot(rr.SlotReg, rr.SlotVer)))
				resume = append(resume, rr.Instr)
			}
		}
		if pos == n {
			break
		}
		switch plan.Status[pos] {
		case StatusReExec:
			in := *prog.At(plan.Q + pos)
			in.Comment = "re-exec"
			resume = append(resume, in)
		case StatusReload:
			regs = plan.ReloadRegs[pos].Append(regs[:0])
			for _, r := range regs {
				resume = append(resume, loadInstr(r, layout.slot(r, version(pos))))
			}
		}
	}
	return preempt, resume
}

// copyInstr materializes reg from its backup spare.
func copyInstr(reg, spare isa.Reg) isa.Instruction {
	switch {
	case reg == isa.Exec:
		return isa.Instruction{Op: isa.SSetExec, Srcs: [isa.MaxSrcs]isa.Operand{isa.R(spare)}, Comment: "osrb restore"}
	case reg == isa.VCC:
		return isa.Instruction{Op: isa.SSetVCC, Srcs: [isa.MaxSrcs]isa.Operand{isa.R(spare)}, Comment: "osrb restore"}
	default:
		return isa.Instruction{Op: isa.SMov, Dst: reg, Srcs: [isa.MaxSrcs]isa.Operand{isa.R(spare)}, Comment: "osrb restore"}
	}
}

// backupInstr copies reg into its spare (inserted at block entries during
// normal execution — the OSRB runtime overhead).
func backupInstr(reg, spare isa.Reg) isa.Instruction {
	switch {
	case reg == isa.Exec:
		return isa.Instruction{Op: isa.SGetExec, Dst: spare, Comment: "osrb backup"}
	case reg == isa.VCC:
		return isa.Instruction{Op: isa.SGetVCC, Dst: spare, Comment: "osrb backup"}
	default:
		return isa.Instruction{Op: isa.SMov, Dst: spare, Srcs: [isa.MaxSrcs]isa.Operand{isa.R(reg)}, Comment: "osrb backup"}
	}
}
