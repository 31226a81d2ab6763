package core

import "ctxback/internal/isa"

// progInfo holds per-PC decode output — each instruction's defined and
// used registers and its revert form — plus a dense register numbering.
// The flashback search analyzes thousands of (P, Q) windows per
// program, and re-deriving Defs/Uses/Revertible per window and hashing
// isa.Reg structs for every map touch used to dominate the compile. One
// progInfo is built per compile and passed to everything that needs
// it; the numbering lets the analyzer and validator use flat slices
// instead of Reg-keyed maps.
type progInfo struct {
	defs    [][]isa.Reg  // defs[pc]: registers instruction pc defines
	uses    [][]isa.Reg  // uses[pc]: registers instruction pc reads
	reverts []revertForm // reverts[pc]: how to undo instruction pc
	nv      int          // allocated vector registers
	ns      int          // allocated scalar registers (includes spares)
}

// revertForm caches isa.Instruction.Revertible for one instruction.
type revertForm struct {
	ok    bool
	instr isa.Instruction
	// extras are the registers the revert reads besides the recovered
	// one, plus EXEC for a vector original (a vector revert depends on
	// the mask the original ran under).
	extras []isa.Reg
}

func newProgInfo(prog *isa.Program) *progInfo {
	n := prog.Len()
	pi := &progInfo{
		defs:    make([][]isa.Reg, n),
		uses:    make([][]isa.Reg, n),
		reverts: make([]revertForm, n),
		nv:      prog.AllocatedVRegs(),
		ns:      prog.AllocatedSRegs(),
	}
	// One backing array per table: slices taken before a regrowth keep
	// pointing at the old array, whose contents never change.
	all := make([]isa.Reg, 0, 4*n)
	for pc := 0; pc < n; pc++ {
		in := prog.At(pc)
		start := len(all)
		all = in.Defs(all)
		pi.defs[pc] = all[start:len(all):len(all)]
		start = len(all)
		all = in.Uses(all)
		pi.uses[pc] = all[start:len(all):len(all)]
		extras, ok := in.RevertExtraOperands()
		if !ok {
			continue
		}
		if in.Op.Info().ReadsExec {
			extras = append(extras, isa.Exec)
		}
		rev, _ := in.Revertible()
		pi.reverts[pc] = revertForm{ok: true, instr: rev, extras: extras}
	}
	return pi
}

// regID maps a register to a dense index in [0, numRegIDs()): vector
// registers first, then scalars (including alignment spares), then the
// three specials.
func (pi *progInfo) regID(r isa.Reg) int {
	switch r.Class {
	case isa.RegVector:
		return int(r.Index)
	case isa.RegScalar:
		return pi.nv + int(r.Index)
	default:
		return pi.nv + pi.ns + int(r.Index)
	}
}

func (pi *progInfo) numRegIDs() int { return pi.nv + pi.ns + 3 }
