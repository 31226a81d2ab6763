package core

import (
	"fmt"

	"ctxback/internal/isa"
	"ctxback/internal/liveness"
)

// symVal is an abstract value: which version of which register it is. A
// zero symVal (reg invalid) is poison.
type symVal struct {
	reg isa.Reg
	ver version
}

// symTab maps physical registers to abstract values, stored flat by
// progInfo.regID. An entry is set when mark[id] == stamp, so reset is
// O(1). Registers never written read as their version at P (atP) or as
// poison.
type symTab struct {
	vals  []symVal
	mark  []uint32
	stamp uint32
	atP   bool
}

func newSymTab(nids int, atP bool) symTab {
	return symTab{vals: make([]symVal, nids), mark: make([]uint32, nids), atP: atP}
}

func (t *symTab) reset() {
	t.stamp++
	if t.stamp == 0 { // wrapped: old marks could collide
		clear(t.mark)
		t.stamp = 1
	}
}

// slotKey identifies a context-buffer slot.
type slotKey struct {
	reg isa.Reg
	ver version
}

// validator replays plans symbolically. One validator serves a whole
// compile and reuses its tables for every plan it checks.
type validator struct {
	prog *isa.Program
	info *progInfo
	live *liveness.Info

	// The window under validation: defsOf[id] lists the window indices
	// defining register id (touched names the ids to clear next time).
	q, n    int
	defsOf  [][]int
	touched []int

	st, rst symTab
	// slots holds the context-buffer slots the preemption stage saved.
	// A saved slot's value is always its own (reg, ver), so the set of
	// keys is all the replay needs.
	slots []slotKey
	regs  []isa.Reg
}

func newValidator(prog *isa.Program, info *progInfo, live *liveness.Info) *validator {
	nids := info.numRegIDs()
	return &validator{
		prog: prog, info: info, live: live,
		defsOf: make([][]int, nids),
		st:     newSymTab(nids, true),
		rst:    newSymTab(nids, false),
	}
}

// ValidatePlan symbolically replays plan's preemption and resume stages
// over abstract value versions and verifies that every live-in register
// of P holds exactly the value it held when the signal arrived. It
// returns a descriptive error for unsound plans.
//
// The check is exact for everything inside the window. Two premises are
// established elsewhere and assumed here: idempotence of re-executed
// memory loads (internal/cfg region analysis) and OSRB backup freshness
// (the selector only offers backups whose copy equals the value at Q).
func ValidatePlan(prog *isa.Program, live *liveness.Info, plan *Plan) error {
	return newValidator(prog, newProgInfo(prog), live).validate(plan)
}

// verAt is the version of r just before window instruction i executes.
func (v *validator) verAt(i int, r isa.Reg) version {
	return latestBefore(v.defsOf[v.info.regID(r)], i)
}

func (v *validator) valAt(i int, r isa.Reg) symVal { return symVal{reg: r, ver: v.verAt(i, r)} }

func (v *validator) get(t *symTab, r isa.Reg) symVal {
	if id := v.info.regID(r); t.mark[id] == t.stamp {
		return t.vals[id]
	}
	if t.atP {
		return v.valAt(v.n, r)
	}
	return symVal{}
}

func (v *validator) put(t *symTab, r isa.Reg, val symVal) {
	id := v.info.regID(r)
	t.vals[id] = val
	t.mark[id] = t.stamp
}

func (v *validator) saved(k slotKey) bool {
	for _, s := range v.slots {
		if s == k {
			return true
		}
	}
	return false
}

func (v *validator) save(k slotKey) {
	if !v.saved(k) {
		v.slots = append(v.slots, k)
	}
}

func (v *validator) validate(plan *Plan) error {
	for _, id := range v.touched {
		v.defsOf[id] = v.defsOf[id][:0]
	}
	v.touched = v.touched[:0]
	v.q, v.n = plan.Q, plan.WindowLen()
	for i := 0; i < v.n; i++ {
		for _, r := range v.info.defs[v.q+i] {
			id := v.info.regID(r)
			if len(v.defsOf[id]) == 0 {
				v.touched = append(v.touched, id)
			}
			v.defsOf[id] = append(v.defsOf[id], i)
		}
	}
	v.slots = v.slots[:0]
	n := v.n
	instr := func(i int) *isa.Instruction { return v.prog.At(plan.Q + i) }

	// --- Preemption stage ---
	// st starts as the state at P; registers never written hold their
	// at-P version implicitly.
	st := &v.st
	st.reset()

	// 1. Save reload slots and resume-revert source slots from the
	// physical state (before any revert mutates it).
	for i, regs := range plan.ReloadRegs {
		v.regs = regs.Append(v.regs[:0])
		for _, r := range v.regs {
			want := symVal{reg: r, ver: version(i)}
			if got := v.get(st, r); got != want {
				return fmt.Errorf("reload slot (%s,v%d): physical holds %v at preemption", r, i, got)
			}
			v.save(slotKey(want))
		}
	}
	for _, rr := range plan.ResumeReverts {
		want := symVal{reg: rr.SlotReg, ver: rr.SlotVer}
		if got := v.get(st, rr.SlotReg); got != want {
			return fmt.Errorf("revert slot (%s,v%d): physical holds %v at preemption", rr.SlotReg, rr.SlotVer, got)
		}
		v.save(slotKey(want))
	}

	// 2. Execute preemption-stage reverts in order.
	for _, pr := range plan.PreemptReverts {
		if err := v.applyRevert(st, instr(pr.K), pr.K, pr.Instr); err != nil {
			return fmt.Errorf("preempt revert of window[%d]: %w", pr.K, err)
		}
	}

	// 3. Save init-version registers; the resume stage loads them first.
	// rst is explicit: registers never restored are poison.
	rst := &v.rst
	rst.reset()
	for r, src := range plan.InitRegs {
		switch src {
		case InitDirect, InitRevertPreempt:
			got := v.get(st, r)
			if got != (symVal{reg: r, ver: verInit}) {
				return fmt.Errorf("init save of %s (%v): holds %v after reverts", r, src, got)
			}
			v.put(rst, r, got)
		case InitOSRB:
			// Backup premise: the spare holds the value at Q.
			v.put(rst, r, symVal{reg: r, ver: verInit})
		case InitRevertResume:
			// Recovered during resume; the source slot was saved above.
		default:
			return fmt.Errorf("init reg %s has unusable source %v", r, src)
		}
	}

	// --- Resume stage ---
	for pos := 0; pos <= n; pos++ {
		for _, rr := range plan.ResumeReverts {
			if rr.Pos != pos {
				continue
			}
			k := slotKey{rr.SlotReg, rr.SlotVer}
			if !v.saved(k) {
				return fmt.Errorf("resume revert at %d: slot (%s,v%d) never saved", pos, rr.SlotReg, rr.SlotVer)
			}
			v.put(rst, rr.SlotReg, symVal(k))
			if err := v.applyRevert(rst, instr(int(rr.SlotVer)), int(rr.SlotVer), rr.Instr); err != nil {
				return fmt.Errorf("resume revert at %d: %w", pos, err)
			}
		}
		if pos == n {
			break
		}
		switch plan.Status[pos] {
		case StatusReExec:
			in := instr(pos)
			for _, u := range v.info.uses[plan.Q+pos] {
				want := v.valAt(pos, u)
				if got := v.get(rst, u); got != want {
					return fmt.Errorf("re-exec window[%d] (%s): operand %s holds %v, want %v",
						pos, in, u, got, want)
				}
			}
			// A masked partial def merges into its destination: when the
			// masked-out lanes are observable, the prior version must be
			// present for the re-execution to reproduce the value.
			if r, ok := partialDefReads(v.prog, v.live, plan.Q+pos); ok {
				want := v.valAt(pos, r)
				if got := v.get(rst, r); got != want {
					return fmt.Errorf("re-exec window[%d] (%s): masked dst %s holds %v, want prior %v",
						pos, in, r, got, want)
				}
			}
			for _, d := range v.info.defs[plan.Q+pos] {
				v.put(rst, d, symVal{reg: d, ver: version(pos)})
			}
		case StatusReload:
			v.regs = plan.ReloadRegs[pos].Append(v.regs[:0])
			for _, r := range v.regs {
				k := slotKey{r, version(pos)}
				if !v.saved(k) {
					return fmt.Errorf("reload window[%d]: slot (%s,v%d) never saved", pos, r, pos)
				}
				v.put(rst, r, symVal(k))
			}
		case StatusSkip:
			// Either a durable side effect or a dead instruction.
		default:
			return fmt.Errorf("window[%d] left unclassified", pos)
		}
	}

	// Final check: R_cur restored exactly.
	v.regs = v.live.LiveIn[plan.P].Append(v.regs[:0])
	for _, r := range v.regs {
		want := v.valAt(n, r)
		if got := v.get(rst, r); got != want {
			return fmt.Errorf("live-in %s at P: restored %v, want %v", r, got, want)
		}
	}
	return nil
}

// applyRevert checks and applies the revert of window instruction k
// (orig) on a state: the recovered register must hold k's result, every
// extra operand must hold its value as of k's execution, and the
// recovered register becomes the pre-k value.
func (v *validator) applyRevert(t *symTab, orig *isa.Instruction, k int, rev isa.Instruction) error {
	dst := orig.Dst
	if cur := v.get(t, dst); cur != (symVal{reg: dst, ver: version(k)}) {
		return fmt.Errorf("register %s holds %v, not the result of window[%d]", dst, cur, k)
	}
	check := func(x isa.Reg) error {
		want := v.valAt(k, x)
		if got := v.get(t, x); got != want {
			return fmt.Errorf("revert operand %s holds %v, want %v", x, got, want)
		}
		return nil
	}
	for _, s := range rev.SrcOperands() {
		if s.IsReg() && s.Reg != dst {
			if err := check(s.Reg); err != nil {
				return err
			}
		}
	}
	if orig.Op.Info().ReadsExec {
		if err := check(isa.Exec); err != nil {
			return err
		}
	}
	v.put(t, dst, v.valAt(k, dst))
	return nil
}
