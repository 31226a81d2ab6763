package sim

import (
	"fmt"
	"math"
	"math/bits"

	"ctxback/internal/isa"
)

// effect reports the non-register consequences of executing one
// instruction; the SM scheduler turns these into timing and state
// transitions.
type effect struct {
	nextPC    int  // -1: fall through
	memBytes  int  // device-memory traffic
	ldsBytes  int  // LDS traffic
	barrier   bool // warp arrived at a barrier
	endpgm    bool
	ctxExit   bool
	ctxResume bool
	resumePC  int
}

// faultError is a simulation fault (bad address, misalignment, ...).
type faultError struct {
	warp *Warp
	in   *isa.Instruction
	msg  string
}

func (e *faultError) Error() string {
	return fmt.Sprintf("sim fault: warp %d pc %d (%s): %s", e.warp.ID, e.warp.PC, e.in, e.msg)
}

func (d *Device) fault(w *Warp, in *isa.Instruction, format string, args ...any) error {
	return &faultError{warp: w, in: in, msg: fmt.Sprintf(format, args...)}
}

// readScalarOperand resolves a scalar-context source (immediates are
// sign-extended from 32 bits).
func (w *Warp) readScalarOperand(o isa.Operand) uint64 {
	if o.IsImm() {
		return uint64(int64(int32(o.Imm)))
	}
	return w.readScalarReg(o.Reg)
}

func (w *Warp) readScalarReg(r isa.Reg) uint64 {
	switch r.Class {
	case isa.RegScalar:
		return w.SRegs[r.Index]
	case isa.RegSpecial:
		switch r.Index {
		case isa.SpecExec:
			return w.Exec
		case isa.SpecVCC:
			return w.VCC
		case isa.SpecSCC:
			if w.SCC {
				return 1
			}
			return 0
		}
	}
	return 0
}

func (w *Warp) writeScalarReg(r isa.Reg, v uint64) {
	switch r.Class {
	case isa.RegScalar:
		w.SRegs[r.Index] = v
	case isa.RegSpecial:
		switch r.Index {
		case isa.SpecExec:
			w.Exec = v
		case isa.SpecVCC:
			w.VCC = v
		case isa.SpecSCC:
			w.SCC = v != 0
		}
	}
}

// execute runs one decoded instruction functionally and returns its
// effect.
func (d *Device) execute(w *Warp, e *isa.Decoded) (effect, error) {
	eff := effect{nextPC: -1}
	in := e.In

	switch e.Info.Class {
	case isa.ClassScalarALU:
		d.execScalarALU(w, e)
	case isa.ClassVectorALU:
		d.execVectorALU(w, e)
	case isa.ClassBranch:
		taken := false
		switch in.Op {
		case isa.SBranch:
			taken = true
		case isa.SCBranchSCC1:
			taken = w.SCC
		case isa.SCBranchSCC0:
			taken = !w.SCC
		case isa.SCBranchExecZ:
			taken = w.Exec == 0
		case isa.SCBranchExecNZ:
			taken = w.Exec != 0
		}
		if taken {
			eff.nextPC = in.Target
		}
	case isa.ClassSync:
		switch in.Op {
		case isa.SBarrier:
			eff.barrier = true
		case isa.SEndpgm:
			eff.endpgm = true
		}
	case isa.ClassScalarMem, isa.ClassVectorMem, isa.ClassAtomic, isa.ClassLDSMem:
		return d.execMemory(w, e)
	case isa.ClassContext:
		return d.execContext(w, in)
	default:
		return eff, d.fault(w, in, "unimplemented opcode class")
	}
	return eff, nil
}

func (d *Device) execScalarALU(w *Warp, e *isa.Decoded) {
	in := e.In
	a := uint64(0)
	b := uint64(0)
	if e.Info.NumSrc >= 1 {
		a = w.readScalarOperand(in.Srcs[0])
	}
	if e.Info.NumSrc >= 2 {
		b = w.readScalarOperand(in.Srcs[1])
	}
	switch in.Op {
	case isa.SMov:
		w.writeScalarReg(in.Dst, a)
	case isa.SAdd:
		w.writeScalarReg(in.Dst, a+b)
	case isa.SSub:
		w.writeScalarReg(in.Dst, a-b)
	case isa.SMul:
		w.writeScalarReg(in.Dst, a*b)
	case isa.SAnd:
		w.writeScalarReg(in.Dst, a&b)
	case isa.SOr:
		w.writeScalarReg(in.Dst, a|b)
	case isa.SXor:
		w.writeScalarReg(in.Dst, a^b)
	case isa.SNot:
		w.writeScalarReg(in.Dst, ^a)
	case isa.SShl:
		w.writeScalarReg(in.Dst, a<<(b&63))
	case isa.SShr:
		w.writeScalarReg(in.Dst, a>>(b&63))
	case isa.SMin:
		w.writeScalarReg(in.Dst, uint64(min(int64(a), int64(b))))
	case isa.SMax:
		w.writeScalarReg(in.Dst, uint64(max(int64(a), int64(b))))
	case isa.SCmpEq:
		w.SCC = a == b
	case isa.SCmpNe:
		w.SCC = a != b
	case isa.SCmpLt:
		w.SCC = int64(a) < int64(b)
	case isa.SCmpGt:
		w.SCC = int64(a) > int64(b)
	case isa.SCmpLe:
		w.SCC = int64(a) <= int64(b)
	case isa.SCmpGe:
		w.SCC = int64(a) >= int64(b)
	case isa.SSetExec:
		w.Exec = a
	case isa.SGetExec:
		w.writeScalarReg(in.Dst, w.Exec)
	case isa.SAndSaveExecVCC:
		w.writeScalarReg(in.Dst, w.Exec)
		w.Exec &= w.VCC
	case isa.SOrExec:
		w.Exec |= a
	case isa.SGetVCC:
		w.writeScalarReg(in.Dst, w.VCC)
	case isa.SSetVCC:
		w.VCC = a
	}
}

func (d *Device) execVectorALU(w *Warp, e *isa.Decoded) {
	in := e.In
	switch in.Op {
	case isa.VReadLane:
		lane := int(in.Imm0)
		w.writeScalarReg(in.Dst, uint64(w.VRegs[in.Srcs[0].Reg.Index][lane]))
		return
	case isa.VWriteLane:
		lane := int(in.Imm0)
		w.VRegs[in.Dst.Index][lane] = uint32(w.readScalarOperand(in.Srcs[0]))
		return
	}

	// Op-major: resolve each source once to a full warp of lanes, then
	// run one tight loop for the op. Lanes outside EXEC are computed too
	// (every op is lane-local and side-effect free) but never written.
	// Sources an op does not take stay pointed at their (unused) scratch.
	scratch := &w.SM.laneScratch
	a, b, c := &scratch[0], &scratch[1], &scratch[2]
	switch e.Info.NumSrc {
	case 3:
		c = w.laneSource(e, 2, c)
		fallthrough
	case 2:
		b = w.laneSource(e, 1, b)
		fallthrough
	case 1:
		a = w.laneSource(e, 0, a)
	}
	exec := w.Exec
	if e.Info.WritesVCC {
		w.VCC = vcmp(in.Op, a, b) & exec
		return
	}
	if exec == 0 {
		return
	}
	dst := (*laneVec)(w.VRegs[in.Dst.Index])
	if exec == ^uint64(0) {
		valu(in.Op, dst, a, b, c, w.VCC)
		return
	}
	out := &scratch[3]
	valu(in.Op, out, a, b, c, w.VCC)
	for m := exec; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		dst[l] = out[l]
	}
}

// laneVec holds one 32-bit value per lane of a warp.
type laneVec [isa.WarpSize]uint32

// laneSource resolves source i of e, read per lane, to its per-lane
// values: a vector register or the immediate lanes the decoded stream
// holds by reference, or a scalar or special register (low 32 bits)
// splatted into scratch.
func (w *Warp) laneSource(e *isa.Decoded, i int, scratch *laneVec) *laneVec {
	if v := e.Lanes[i]; v != nil {
		return (*laneVec)(v)
	}
	o := &e.In.Srcs[i]
	if o.IsReg() && o.Reg.Class == isa.RegVector {
		return (*laneVec)(w.VRegs[o.Reg.Index])
	}
	// Four lanes per store: a lane-at-a-time fill costs as much as the op.
	v := uint32(w.readScalarReg(o.Reg))
	quad := [4]uint32{v, v, v, v}
	for l := 0; l+4 <= len(scratch); l += 4 {
		*(*[4]uint32)(scratch[l : l+4]) = quad
	}
	return scratch
}

// f32 and u32 reinterpret a lane's bits as binary32 and back.
func f32(u uint32) float32 { return math.Float32frombits(u) }
func u32(f float32) uint32 { return math.Float32bits(f) }

// bit is 1 for true and 0 for false; the compiler emits no branch, so a
// lane loop over data-dependent compares does not mispredict.
func bit(c bool) uint64 {
	if c {
		return 1
	}
	return 0
}

// vcmp returns the lane mask of a vector compare over all lanes; the
// caller clears the lanes outside EXEC.
func vcmp(op isa.Op, a, b *laneVec) uint64 {
	_, _ = a[0], b[0]
	var m uint64
	switch op {
	case isa.VCmpEqI:
		for l := range a {
			m |= bit(a[l] == b[l]) << l
		}
	case isa.VCmpLtI:
		for l := range a {
			m |= bit(int32(a[l]) < int32(b[l])) << l
		}
	case isa.VCmpGtI:
		for l := range a {
			m |= bit(int32(a[l]) > int32(b[l])) << l
		}
	case isa.VCmpLtF:
		for l := range a {
			m |= bit(f32(a[l]) < f32(b[l])) << l
		}
	case isa.VCmpGtF:
		for l := range a {
			m |= bit(f32(a[l]) > f32(b[l])) << l
		}
	case isa.VCmpLeF:
		for l := range a {
			m |= bit(f32(a[l]) <= f32(b[l])) << l
		}
	}
	return m
}

// valu computes a lane-wise vector ALU op on every lane into out, which
// may alias a source: each lane reads its operands before writing its
// result. Every float case repeats the per-lane reference expression
// exactly (the same conversions and math calls), so NaN, -0 and
// out-of-range conversions come out bit for bit the same.
func valu(op isa.Op, out, a, b, c *laneVec, vcc uint64) {
	_, _, _, _ = out[0], a[0], b[0], c[0] // one nil check each, not one per lane
	switch op {
	case isa.VMov:
		*out = *a
	case isa.VAdd:
		for l := range out {
			out[l] = a[l] + b[l]
		}
	case isa.VSub:
		for l := range out {
			out[l] = a[l] - b[l]
		}
	case isa.VMul:
		for l := range out {
			out[l] = a[l] * b[l]
		}
	case isa.VMad:
		for l := range out {
			out[l] = a[l]*b[l] + c[l]
		}
	case isa.VAnd:
		for l := range out {
			out[l] = a[l] & b[l]
		}
	case isa.VOr:
		for l := range out {
			out[l] = a[l] | b[l]
		}
	case isa.VXor:
		for l := range out {
			out[l] = a[l] ^ b[l]
		}
	case isa.VNot:
		for l := range out {
			out[l] = ^a[l]
		}
	case isa.VShl:
		for l := range out {
			out[l] = a[l] << (b[l] & 31)
		}
	case isa.VShr:
		for l := range out {
			out[l] = a[l] >> (b[l] & 31)
		}
	case isa.VMin:
		for l := range out {
			out[l] = uint32(min(int32(a[l]), int32(b[l])))
		}
	case isa.VMax:
		for l := range out {
			out[l] = uint32(max(int32(a[l]), int32(b[l])))
		}
	case isa.VLaneID:
		for l := range out {
			out[l] = uint32(l)
		}
	case isa.VAddF:
		for l := range out {
			out[l] = u32(f32(a[l]) + f32(b[l]))
		}
	case isa.VSubF:
		for l := range out {
			out[l] = u32(f32(a[l]) - f32(b[l]))
		}
	case isa.VMulF:
		for l := range out {
			out[l] = u32(f32(a[l]) * f32(b[l]))
		}
	case isa.VMadF:
		for l := range out {
			out[l] = u32(f32(a[l])*f32(b[l]) + f32(c[l]))
		}
	case isa.VMinF:
		for l := range out {
			out[l] = u32(float32(math.Min(float64(f32(a[l])), float64(f32(b[l])))))
		}
	case isa.VMaxF:
		for l := range out {
			out[l] = u32(float32(math.Max(float64(f32(a[l])), float64(f32(b[l])))))
		}
	case isa.VRcpF:
		for l := range out {
			out[l] = u32(1 / f32(a[l]))
		}
	case isa.VSqrtF:
		for l := range out {
			out[l] = u32(float32(math.Sqrt(float64(f32(a[l])))))
		}
	case isa.VAbsF:
		for l := range out {
			out[l] = u32(float32(math.Abs(float64(f32(a[l])))))
		}
	case isa.VFloorF:
		for l := range out {
			out[l] = u32(float32(math.Floor(float64(f32(a[l])))))
		}
	case isa.VCvtI2F:
		for l := range out {
			out[l] = u32(float32(int32(a[l])))
		}
	case isa.VCvtF2I:
		for l := range out {
			out[l] = uint32(int32(f32(a[l])))
		}
	case isa.VCndMask:
		for l := range out {
			take := -uint32(vcc >> l & 1) // all ones where VCC selects src1
			out[l] = a[l] ^ (a[l]^b[l])&take
		}
	}
}

func (d *Device) execMemory(w *Warp, e *isa.Decoded) (effect, error) {
	eff := effect{nextPC: -1}
	in := e.In
	switch in.Op {
	case isa.SGLoad:
		addr := uint32(w.readScalarOperand(in.Srcs[0])) + uint32(in.Imm0)
		v, err := d.loadGlobal(w, in, addr)
		if err != nil {
			return eff, err
		}
		w.writeScalarReg(in.Dst, uint64(v))
		eff.memBytes = 4
	case isa.SGStore:
		addr := uint32(w.readScalarOperand(in.Srcs[0])) + uint32(in.Imm0)
		if err := d.storeGlobal(w, in, addr, uint32(w.readScalarOperand(in.Srcs[1]))); err != nil {
			return eff, err
		}
		eff.memBytes = 4
	case isa.VGLoad, isa.VGStore, isa.VGAtomicAdd:
		return d.execVectorGlobal(w, e)
	case isa.VLLoad, isa.VLStore:
		return d.execLDS(w, e)
	}
	return eff, nil
}

// execLDS runs an LDS load or store lane by lane over the set bits of
// EXEC, in ascending lane order, as execVectorGlobal does. The first
// misaligned or out-of-range lane faults after every earlier lane has
// landed.
func (d *Device) execLDS(w *Warp, e *isa.Decoded) (effect, error) {
	eff := effect{nextPC: -1}
	in := e.In
	scratch := &w.SM.laneScratch
	addrs := w.laneSource(e, 0, &scratch[0])
	off := uint32(in.Imm0)
	lds := w.LDS.Data
	exec := w.Exec
	if in.Op == isa.VLLoad {
		dst := (*laneVec)(w.VRegs[in.Dst.Index])
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			addr := addrs[l] + off
			if addr%4 != 0 || int(addr>>2) >= len(lds) {
				return eff, d.ldsFault(w, in, addr)
			}
			dst[l] = lds[addr>>2]
		}
	} else {
		vals := w.laneSource(e, 1, &scratch[1])
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			addr := addrs[l] + off
			if addr%4 != 0 || int(addr>>2) >= len(lds) {
				return eff, d.ldsFault(w, in, addr)
			}
			lds[addr>>2] = vals[l]
		}
	}
	eff.ldsBytes = bits.OnesCount64(exec) * 4
	return eff, nil
}

func (d *Device) ldsFault(w *Warp, in *isa.Instruction, addr uint32) error {
	return d.fault(w, in, "LDS address %#x out of range (lds %d bytes)", addr, len(w.LDS.Data)*4)
}

// execVectorGlobal runs a vector load, store or atomic add lane by lane
// over the set bits of EXEC, in ascending lane order. The first
// misaligned or out-of-range lane faults after every earlier lane has
// landed; atomics keep lane order, so lanes that add to one address all
// accumulate.
//
// Lanes mostly stay inside one page, so the loops keep the page pg the
// last lane touched, the number n of its words in memory (0: none yet)
// and lo, its first word's byte address less the offset: a lane whose
// address register holds a is aligned and inside pg exactly when word
// RotateLeft32(a-lo, -2) is below n (see Memory.lanePage). A lane inside
// pg thus pays one compare; any other faults or moves pg.
func (d *Device) execVectorGlobal(w *Warp, e *isa.Decoded) (effect, error) {
	eff := effect{nextPC: -1}
	in := e.In
	scratch := &w.SM.laneScratch
	addrs := w.laneSource(e, 0, &scratch[0])
	off := uint32(in.Imm0)
	mem := d.Mem
	exec := w.Exec
	var (
		pg    *page
		lo, n uint32
	)
	switch in.Op {
	case isa.VGLoad:
		dst := (*laneVec)(w.VRegs[in.Dst.Index])
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			i := bits.RotateLeft32(addrs[l]-lo, -2)
			if i >= n {
				addr := addrs[l] + off
				if !d.inMemory(addr) {
					return eff, d.globalFault(w, in, addr)
				}
				pg, lo, n = mem.lanePage(addr, false, 0)
				lo -= off
				i = bits.RotateLeft32(addrs[l]-lo, -2)
			}
			dst[l] = pg[i&pageMask]
		}
	case isa.VGStore, isa.VGAtomicAdd:
		vals := w.laneSource(e, 1, &scratch[1])
		add := in.Op == isa.VGAtomicAdd
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			i := bits.RotateLeft32(addrs[l]-lo, -2)
			if i >= n {
				addr := addrs[l] + off
				if !d.inMemory(addr) {
					return eff, d.globalFault(w, in, addr)
				}
				if pg, lo, n = mem.lanePage(addr, true, vals[l]); pg == nil {
					continue // zero into a page without storage
				}
				lo -= off
				i = bits.RotateLeft32(addrs[l]-lo, -2)
			}
			if add {
				pg[i&pageMask] += vals[l]
			} else {
				pg[i&pageMask] = vals[l]
			}
		}
	}
	eff.memBytes = max(bits.OnesCount64(exec)*4, 32)
	if in.Op == isa.VGAtomicAdd {
		eff.memBytes *= 2 // read + write
	}
	return eff, nil
}

// inMemory reports whether byte address addr is aligned and inside
// device memory.
func (d *Device) inMemory(addr uint32) bool {
	return addr%4 == 0 && int(addr>>2) < d.Mem.words
}

func (d *Device) globalFault(w *Warp, in *isa.Instruction, addr uint32) error {
	return d.fault(w, in, "global address %#x out of range", addr)
}

func (d *Device) loadGlobal(w *Warp, in *isa.Instruction, addr uint32) (uint32, error) {
	if !d.inMemory(addr) {
		return 0, d.globalFault(w, in, addr)
	}
	return d.Mem.Load(int(addr >> 2)), nil
}

func (d *Device) storeGlobal(w *Warp, in *isa.Instruction, addr uint32, v uint32) error {
	if !d.inMemory(addr) {
		return d.globalFault(w, in, addr)
	}
	d.Mem.Store(int(addr>>2), v)
	return nil
}

func (d *Device) execContext(w *Warp, in *isa.Instruction) (effect, error) {
	eff := effect{nextPC: -1}
	ctx := w.ctx
	if ctx == nil && in.Op != isa.CtxExit && in.Op != isa.CtxResume {
		return eff, d.fault(w, in, "context op without context buffer")
	}
	slot := in.Imm0
	switch in.Op {
	case isa.CtxSaveV:
		vals := make([]uint32, isa.WarpSize)
		copy(vals, w.VRegs[in.Srcs[0].Reg.Index])
		ctx.VSlots[slot] = vals
		eff.memBytes = 4 * isa.WarpSize
	case isa.CtxLoadV:
		vals, ok := ctx.VSlots[slot]
		if !ok {
			return eff, d.fault(w, in, "context slot v%d never saved", slot)
		}
		copy(w.VRegs[in.Dst.Index], vals)
		eff.memBytes = 4 * isa.WarpSize
	case isa.CtxSaveS:
		ctx.SSlots[slot] = w.readScalarReg(in.Srcs[0].Reg)
		eff.memBytes = 4
	case isa.CtxLoadS:
		v, ok := ctx.SSlots[slot]
		if !ok {
			return eff, d.fault(w, in, "context slot s%d never saved", slot)
		}
		w.writeScalarReg(in.Dst, v)
		eff.memBytes = 4
	case isa.CtxSaveSpec:
		ctx.Specs[slot] = w.readScalarReg(in.Srcs[0].Reg)
		eff.memBytes = in.Srcs[0].Reg.ContextBytes()
	case isa.CtxLoadSpec:
		v, ok := ctx.Specs[slot]
		if !ok {
			return eff, d.fault(w, in, "context slot spec%d never saved", slot)
		}
		w.writeScalarReg(in.Dst, v)
		eff.memBytes = in.Dst.ContextBytes()
	case isa.CtxSaveLDS:
		lo, hi := w.LDSShareLo>>2, w.LDSShareHi>>2
		share := make([]uint32, hi-lo)
		copy(share, w.LDS.Data[lo:hi])
		ctx.LDS = share
		ctx.LDSLo = w.LDSShareLo
		eff.memBytes = (hi - lo) * 4
	case isa.CtxLoadLDS:
		lo := ctx.LDSLo >> 2
		hi := lo + len(ctx.LDS)
		if hi > len(w.LDS.Data) {
			return eff, d.fault(w, in, "LDS share [%d, %d) outside the block's %d words", lo, hi, len(w.LDS.Data))
		}
		copy(w.LDS.Data[lo:hi], ctx.LDS)
		eff.memBytes = (hi - lo) * 4
	case isa.CtxSavePC:
		ctx.PC = in.Target
		ctx.DynCount = w.DynCount
		ctx.Barriers = w.BarrierCount
		eff.memBytes = 8
	case isa.CtxExit:
		eff.ctxExit = true
	case isa.CtxResume:
		eff.ctxResume = true
		eff.resumePC = in.Target
	}
	return eff, nil
}
