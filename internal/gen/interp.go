package gen

import (
	"fmt"
	"math"

	"ctxback/internal/isa"
)

// The golden interpreter: a from-the-ISA-spec reimplementation of the
// program semantics in plain Go, with none of the simulator's machinery
// (no timing, no scheduler, no fast paths, no preemption). Warps run one
// at a time to their next barrier; the generator's race discipline (see
// the package comment) guarantees that any warp order yields the same
// final memory image, so a sequential evaluation is exact.
//
// MaxDynPerWarp is the termination backstop: generated programs bound
// their dynamic length by construction, and the interpreter errors out
// if a warp ever exceeds the budget.
const MaxDynPerWarp = 2_000_000

// iwarp is one warp's architectural state in the interpreter.
type iwarp struct {
	id        int
	warpInBlk int
	pc        int
	sregs     []uint64
	vregs     [][]uint32
	exec, vcc uint64
	scc       bool
	shareLo   int // LDS share bounds, bytes
	shareHi   int
	done      bool
	atBarrier bool
	dyn       int64
}

// stop reasons returned by run.
const (
	stopBarrier = iota
	stopEnd
)

// Expected computes the program's golden final memory image for a device
// of memWords words. The result is cached per (program, memWords).
func (p *Program) Expected(memWords int) ([]uint32, error) {
	if p.expected != nil && p.expectedFor == memWords {
		return p.expected, p.expectedErr
	}
	mem := p.InitialMem(memWords)
	err := p.interpret(mem)
	p.expected, p.expectedErr, p.expectedFor, p.expectedZero = mem, err, memWords, nil
	return mem, err
}

// InitialMem builds the host-side copy of device memory after Init.
func (p *Program) InitialMem(memWords int) []uint32 {
	mem := make([]uint32, memWords)
	copy(mem[p.Layout.InBase/4:], p.inInit)
	copy(mem[p.Layout.AtomBase/4:], p.atomInit)
	return mem
}

// interpret evaluates the whole grid over mem in place. Blocks are
// independent except for atomic adds, which commute, so they are
// evaluated sequentially.
func (p *Program) interpret(mem []uint32) error {
	return p.interpretOrder(mem, nil)
}

// interpretOrder is interpret with an explicit per-block warp visiting
// order (nil: identity). The generator's race discipline promises the
// final memory image is independent of warp interleaving; the
// self-consistency test exercises that promise by permuting the order,
// which also reorders the commuting-atomics and barrier-phase
// interleavings the real scheduler explores.
func (p *Program) interpretOrder(mem []uint32, order []int) error {
	for b := 0; b < p.NumBlocks; b++ {
		if err := p.interpretBlock(b, mem, order); err != nil {
			return fmt.Errorf("gen seed %d block %d: %w", p.Seed, b, err)
		}
	}
	return nil
}

func (p *Program) interpretBlock(block int, mem []uint32, order []int) error {
	lds := make([]uint32, p.Prog.LDSBytes/4)
	shareBytes := 0
	if p.WarpsPerBlock > 0 {
		shareBytes = p.Prog.LDSBytes / p.WarpsPerBlock
	}
	warps := make([]*iwarp, p.WarpsPerBlock)
	for wi := range warps {
		w := &iwarp{
			id:        block*p.WarpsPerBlock + wi,
			warpInBlk: wi,
			sregs:     make([]uint64, p.Prog.NumSRegs),
			vregs:     make([][]uint32, p.Prog.NumVRegs),
			exec:      ^uint64(0),
			shareLo:   wi * shareBytes,
			shareHi:   (wi + 1) * shareBytes,
		}
		for i := range w.vregs {
			w.vregs[i] = make([]uint32, isa.WarpSize)
		}
		w.sregs[sIn] = uint64(p.Layout.InBase)
		w.sregs[sOut] = uint64(p.Layout.OutBase + w.id*p.Layout.TileWords*4)
		w.sregs[sAtom] = uint64(p.Layout.AtomBase)
		w.sregs[sWarp] = uint64(w.id)
		w.sregs[sShare] = uint64(w.shareLo)
		w.sregs[sNbr] = uint64((wi + 1) % p.WarpsPerBlock * p.Layout.ShareWords * 4)
		w.sregs[sTrips] = uint64(p.TopTrips)
		warps[wi] = w
	}

	if order == nil {
		order = make([]int, len(warps))
		for i := range order {
			order[i] = i
		}
	} else if len(order) != len(warps) {
		return fmt.Errorf("interpreter order has %d entries for %d warps", len(order), len(warps))
	}

	for {
		ran := false
		for _, wi := range order {
			w := warps[wi]
			if w.done || w.atBarrier {
				continue
			}
			if err := p.runWarp(w, mem, lds); err != nil {
				return err
			}
			ran = true
		}
		live, waiting := 0, 0
		for _, w := range warps {
			if !w.done {
				live++
				if w.atBarrier {
					waiting++
				}
			}
		}
		if live == 0 {
			return nil
		}
		if waiting == live {
			for _, w := range warps {
				w.atBarrier = false
			}
			continue
		}
		if !ran {
			return fmt.Errorf("interpreter deadlock: %d live, %d at barrier", live, waiting)
		}
	}
}

// runWarp executes w until it passes a barrier or ends.
func (p *Program) runWarp(w *iwarp, mem []uint32, lds []uint32) error {
	instrs := p.Prog.Instrs
	for {
		if w.pc < 0 || w.pc >= len(instrs) {
			return fmt.Errorf("warp %d pc %d out of program", w.id, w.pc)
		}
		w.dyn++
		if w.dyn > MaxDynPerWarp {
			return fmt.Errorf("warp %d exceeded dynamic budget %d", w.id, MaxDynPerWarp)
		}
		in := &instrs[w.pc]
		next := w.pc + 1
		switch in.Op.Info().Class {
		case isa.ClassScalarALU:
			w.scalarALU(in)
		case isa.ClassVectorALU:
			w.vectorALU(in)
		case isa.ClassBranch:
			taken := false
			switch in.Op {
			case isa.SBranch:
				taken = true
			case isa.SCBranchSCC1:
				taken = w.scc
			case isa.SCBranchSCC0:
				taken = !w.scc
			case isa.SCBranchExecZ:
				taken = w.exec == 0
			case isa.SCBranchExecNZ:
				taken = w.exec != 0
			}
			if taken {
				next = in.Target
			}
		case isa.ClassSync:
			switch in.Op {
			case isa.SBarrier:
				w.pc = next
				w.atBarrier = true
				return nil
			case isa.SEndpgm:
				w.done = true
				return nil
			}
		case isa.ClassScalarMem, isa.ClassVectorMem, isa.ClassAtomic:
			if err := w.globalMem(in, mem); err != nil {
				return err
			}
		case isa.ClassLDSMem:
			if err := w.ldsMem(in, lds); err != nil {
				return err
			}
		default:
			return fmt.Errorf("warp %d pc %d: unexpected op %v in generated program", w.id, w.pc, in.Op)
		}
		w.pc = next
	}
}

// --- operand resolution (spec: scalar-context immediates sign-extend
// from 32 bits; vector-context immediates are raw patterns; scalar
// registers broadcast into vector context) ---

func (w *iwarp) readSpecial(idx uint16) uint64 {
	switch idx {
	case isa.SpecExec:
		return w.exec
	case isa.SpecVCC:
		return w.vcc
	case isa.SpecSCC:
		if w.scc {
			return 1
		}
	}
	return 0
}

func (w *iwarp) readSReg(rg isa.Reg) uint64 {
	if rg.Class == isa.RegScalar {
		return w.sregs[rg.Index]
	}
	if rg.Class == isa.RegSpecial {
		return w.readSpecial(rg.Index)
	}
	return 0
}

func (w *iwarp) writeSReg(rg isa.Reg, val uint64) {
	switch rg.Class {
	case isa.RegScalar:
		w.sregs[rg.Index] = val
	case isa.RegSpecial:
		switch rg.Index {
		case isa.SpecExec:
			w.exec = val
		case isa.SpecVCC:
			w.vcc = val
		case isa.SpecSCC:
			w.scc = val != 0
		}
	}
}

func (w *iwarp) sval(o isa.Operand) uint64 {
	if o.IsImm() {
		return uint64(int64(int32(o.Imm)))
	}
	return w.readSReg(o.Reg)
}

func (w *iwarp) lval(o isa.Operand, lane int) uint32 {
	if o.IsImm() {
		return o.Imm
	}
	if o.Reg.Class == isa.RegVector {
		return w.vregs[o.Reg.Index][lane]
	}
	return uint32(w.readSReg(o.Reg))
}

func (w *iwarp) active(lane int) bool { return w.exec&(1<<uint(lane)) != 0 }

// --- scalar ALU (64-bit per-warp registers) ---

func (w *iwarp) scalarALU(in *isa.Instruction) {
	var a, b uint64
	if in.NumSrcs() >= 1 {
		a = w.sval(in.Srcs[0])
	}
	if in.NumSrcs() >= 2 {
		b = w.sval(in.Srcs[1])
	}
	set := func(val uint64) { w.writeSReg(in.Dst, val) }
	switch in.Op {
	case isa.SMov:
		set(a)
	case isa.SAdd:
		set(a + b)
	case isa.SSub:
		set(a - b)
	case isa.SMul:
		set(a * b)
	case isa.SAnd:
		set(a & b)
	case isa.SOr:
		set(a | b)
	case isa.SXor:
		set(a ^ b)
	case isa.SNot:
		set(^a)
	case isa.SShl:
		set(a << (b & 63))
	case isa.SShr:
		set(a >> (b & 63))
	case isa.SMin:
		if int64(a) < int64(b) {
			set(a)
		} else {
			set(b)
		}
	case isa.SMax:
		if int64(a) > int64(b) {
			set(a)
		} else {
			set(b)
		}
	case isa.SCmpEq:
		w.scc = a == b
	case isa.SCmpNe:
		w.scc = a != b
	case isa.SCmpLt:
		w.scc = int64(a) < int64(b)
	case isa.SCmpGt:
		w.scc = int64(a) > int64(b)
	case isa.SCmpLe:
		w.scc = int64(a) <= int64(b)
	case isa.SCmpGe:
		w.scc = int64(a) >= int64(b)
	case isa.SSetExec:
		w.exec = a
	case isa.SGetExec:
		set(w.exec)
	case isa.SAndSaveExecVCC:
		set(w.exec)
		w.exec &= w.vcc
	case isa.SOrExec:
		w.exec |= a
	case isa.SGetVCC:
		set(w.vcc)
	case isa.SSetVCC:
		w.vcc = a
	}
}

// --- vector ALU (32-bit lanes under EXEC; VReadLane/VWriteLane and the
// scalar side of compares are the documented exceptions) ---

func (w *iwarp) vectorALU(in *isa.Instruction) {
	switch in.Op {
	case isa.VReadLane: // EXEC-independent by definition
		w.writeSReg(in.Dst, uint64(w.vregs[in.Srcs[0].Reg.Index][in.Imm0]))
		return
	case isa.VWriteLane:
		w.vregs[in.Dst.Index][in.Imm0] = uint32(w.sval(in.Srcs[0]))
		return
	}
	if in.Op.Info().WritesVCC {
		// Compares rebuild VCC: inactive lanes contribute 0.
		var newVCC uint64
		for lane := 0; lane < isa.WarpSize; lane++ {
			if !w.active(lane) {
				continue
			}
			if cmpLane(in.Op, w.lval(in.Srcs[0], lane), w.lval(in.Srcs[1], lane)) {
				newVCC |= 1 << uint(lane)
			}
		}
		w.vcc = newVCC
		return
	}
	dst := w.vregs[in.Dst.Index]
	for lane := 0; lane < isa.WarpSize; lane++ {
		if !w.active(lane) {
			continue
		}
		dst[lane] = w.aluLane(in, lane)
	}
}

func cmpLane(op isa.Op, a, b uint32) bool {
	switch op {
	case isa.VCmpEqI:
		return a == b
	case isa.VCmpLtI:
		return int32(a) < int32(b)
	case isa.VCmpGtI:
		return int32(a) > int32(b)
	case isa.VCmpLtF:
		return math.Float32frombits(a) < math.Float32frombits(b)
	case isa.VCmpGtF:
		return math.Float32frombits(a) > math.Float32frombits(b)
	case isa.VCmpLeF:
		return math.Float32frombits(a) <= math.Float32frombits(b)
	}
	return false
}

func (w *iwarp) aluLane(in *isa.Instruction, lane int) uint32 {
	var a, b, c uint32
	n := in.NumSrcs()
	if n >= 1 {
		a = w.lval(in.Srcs[0], lane)
	}
	if n >= 2 {
		b = w.lval(in.Srcs[1], lane)
	}
	if n >= 3 {
		c = w.lval(in.Srcs[2], lane)
	}
	fbits := math.Float32bits
	ff := math.Float32frombits
	switch in.Op {
	case isa.VMov:
		return a
	case isa.VAdd:
		return a + b
	case isa.VSub:
		return a - b
	case isa.VMul:
		return a * b
	case isa.VMad:
		return a*b + c
	case isa.VAnd:
		return a & b
	case isa.VOr:
		return a | b
	case isa.VXor:
		return a ^ b
	case isa.VNot:
		return ^a
	case isa.VShl:
		return a << (b & 31)
	case isa.VShr:
		return a >> (b & 31)
	case isa.VMin:
		if int32(a) < int32(b) {
			return a
		}
		return b
	case isa.VMax:
		if int32(a) > int32(b) {
			return a
		}
		return b
	case isa.VLaneID:
		return uint32(lane)
	case isa.VAddF:
		return fbits(ff(a) + ff(b))
	case isa.VSubF:
		return fbits(ff(a) - ff(b))
	case isa.VMulF:
		return fbits(ff(a) * ff(b))
	case isa.VMadF:
		return fbits(ff(a)*ff(b) + ff(c))
	case isa.VMinF:
		return fbits(float32(math.Min(float64(ff(a)), float64(ff(b)))))
	case isa.VMaxF:
		return fbits(float32(math.Max(float64(ff(a)), float64(ff(b)))))
	case isa.VRcpF:
		return fbits(1 / ff(a))
	case isa.VSqrtF:
		return fbits(float32(math.Sqrt(float64(ff(a)))))
	case isa.VAbsF:
		return fbits(float32(math.Abs(float64(ff(a)))))
	case isa.VFloorF:
		return fbits(float32(math.Floor(float64(ff(a)))))
	case isa.VCvtI2F:
		return fbits(float32(int32(a)))
	case isa.VCvtF2I:
		return uint32(int32(ff(a)))
	case isa.VCndMask:
		if w.vcc&(1<<uint(lane)) != 0 {
			return b
		}
		return a
	}
	return 0
}

// --- memory (byte addresses, 4-aligned; per-lane accesses resolve in
// lane order) ---

func (w *iwarp) globalMem(in *isa.Instruction, mem []uint32) error {
	word := func(addr uint32) (int, error) {
		idx := int(addr) >> 2
		if addr%4 != 0 || idx < 0 || idx >= len(mem) {
			return 0, fmt.Errorf("warp %d pc %d: global address %#x out of range", w.id, w.pc, addr)
		}
		return idx, nil
	}
	switch in.Op {
	case isa.SGLoad:
		idx, err := word(uint32(w.sval(in.Srcs[0])) + uint32(in.Imm0))
		if err != nil {
			return err
		}
		w.writeSReg(in.Dst, uint64(mem[idx]))
	case isa.SGStore:
		idx, err := word(uint32(w.sval(in.Srcs[0])) + uint32(in.Imm0))
		if err != nil {
			return err
		}
		mem[idx] = uint32(w.sval(in.Srcs[1]))
	case isa.VGLoad, isa.VGStore, isa.VGAtomicAdd:
		for lane := 0; lane < isa.WarpSize; lane++ {
			if !w.active(lane) {
				continue
			}
			idx, err := word(w.lval(in.Srcs[0], lane) + uint32(in.Imm0))
			if err != nil {
				return err
			}
			switch in.Op {
			case isa.VGLoad:
				w.vregs[in.Dst.Index][lane] = mem[idx]
			case isa.VGStore:
				mem[idx] = w.lval(in.Srcs[1], lane)
			case isa.VGAtomicAdd:
				mem[idx] += w.lval(in.Srcs[1], lane)
			}
		}
	}
	return nil
}

func (w *iwarp) ldsMem(in *isa.Instruction, lds []uint32) error {
	for lane := 0; lane < isa.WarpSize; lane++ {
		if !w.active(lane) {
			continue
		}
		addr := w.lval(in.Srcs[0], lane) + uint32(in.Imm0)
		idx := int(addr) >> 2
		if addr%4 != 0 || idx < 0 || idx >= len(lds) {
			return fmt.Errorf("warp %d pc %d: LDS address %#x out of range", w.id, w.pc, addr)
		}
		if in.Op == isa.VLLoad {
			w.vregs[in.Dst.Index][lane] = lds[idx]
		} else {
			lds[idx] = w.lval(in.Srcs[1], lane)
		}
	}
	return nil
}
