package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ctxback/internal/isa"
)

// The per-lane reference executor. The simulator runs vector ALU,
// vector global-memory and LDS instructions op-major (one opcode
// dispatch per instruction, then one loop over the lanes); these
// functions are the lane-major path it replaced, kept here as the oracle
// the op-major path is differentially checked against.

// resolveVectorOperand splits a vector-context source into its per-lane
// slice (vector registers) or its lane-uniform value (immediates and
// broadcast scalar registers).
func (w *Warp) resolveVectorOperand(o isa.Operand) ([]uint32, uint32) {
	if o.IsImm() {
		return nil, o.Imm
	}
	if o.Reg.Class == isa.RegVector {
		return w.VRegs[o.Reg.Index], 0
	}
	return nil, uint32(w.readScalarReg(o.Reg))
}

func vcmpLane(op isa.Op, a, b uint32) bool {
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

func valuLane(w *Warp, in *isa.Instruction, lane int, a, b, c uint32) uint32 {
	fa := func() float32 { return math.Float32frombits(a) }
	fb := func() float32 { return math.Float32frombits(b) }
	fc := func() float32 { return math.Float32frombits(c) }
	f := math.Float32bits
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
		return uint32(min(int32(a), int32(b)))
	case isa.VMax:
		return uint32(max(int32(a), int32(b)))
	case isa.VLaneID:
		return uint32(lane)
	case isa.VAddF:
		return f(fa() + fb())
	case isa.VSubF:
		return f(fa() - fb())
	case isa.VMulF:
		return f(fa() * fb())
	case isa.VMadF:
		return f(fa()*fb() + fc())
	case isa.VMinF:
		return f(float32(math.Min(float64(fa()), float64(fb()))))
	case isa.VMaxF:
		return f(float32(math.Max(float64(fa()), float64(fb()))))
	case isa.VRcpF:
		return f(1 / fa())
	case isa.VSqrtF:
		return f(float32(math.Sqrt(float64(fa()))))
	case isa.VAbsF:
		return f(float32(math.Abs(float64(fa()))))
	case isa.VFloorF:
		return f(float32(math.Floor(float64(fa()))))
	case isa.VCvtI2F:
		return f(float32(int32(a)))
	case isa.VCvtF2I:
		return uint32(int32(fa()))
	case isa.VCndMask:
		if w.VCC&(1<<uint(lane)) != 0 {
			return b
		}
		return a
	}
	return 0
}

// execVectorALUPerLane executes a lane-wise vector ALU instruction one
// active lane at a time.
func execVectorALUPerLane(w *Warp, in *isa.Instruction) {
	var av, bv, cv []uint32
	var au, bu, cu uint32
	n := in.NumSrcs()
	if n >= 1 {
		av, au = w.resolveVectorOperand(in.Srcs[0])
	}
	if n >= 2 {
		bv, bu = w.resolveVectorOperand(in.Srcs[1])
	}
	if n >= 3 {
		cv, cu = w.resolveVectorOperand(in.Srcs[2])
	}
	writesVCC := in.Op.Info().WritesVCC
	var dst []uint32
	if !writesVCC {
		dst = w.VRegs[in.Dst.Index]
	}
	var newVCC uint64
	for lane := 0; lane < isa.WarpSize; lane++ {
		if w.Exec&(1<<uint(lane)) == 0 {
			continue
		}
		a, b, c := au, bu, cu
		if av != nil {
			a = av[lane]
		}
		if bv != nil {
			b = bv[lane]
		}
		if cv != nil {
			c = cv[lane]
		}
		if writesVCC {
			if vcmpLane(in.Op, a, b) {
				newVCC |= 1 << uint(lane)
			}
			continue
		}
		dst[lane] = valuLane(w, in, lane, a, b, c)
	}
	if writesVCC {
		w.VCC = newVCC
	}
}

// execVectorGlobalPerLane executes v_gload, v_gstore or v_gatomic_add one
// active lane at a time through the checked scalar accessors.
func execVectorGlobalPerLane(d *Device, w *Warp, in *isa.Instruction) (effect, error) {
	eff := effect{nextPC: -1}
	addrV, addrU := w.resolveVectorOperand(in.Srcs[0])
	var valV []uint32
	var valU uint32
	if in.Op != isa.VGLoad {
		valV, valU = w.resolveVectorOperand(in.Srcs[1])
	}
	lanes := 0
	for lane := 0; lane < isa.WarpSize; lane++ {
		if w.Exec&(1<<uint(lane)) == 0 {
			continue
		}
		lanes++
		addr := addrU + uint32(in.Imm0)
		if addrV != nil {
			addr = addrV[lane] + uint32(in.Imm0)
		}
		val := valU
		if valV != nil {
			val = valV[lane]
		}
		switch in.Op {
		case isa.VGLoad:
			v, err := d.loadGlobal(w, in, addr)
			if err != nil {
				return eff, err
			}
			w.VRegs[in.Dst.Index][lane] = v
		case isa.VGStore:
			if err := d.storeGlobal(w, in, addr, val); err != nil {
				return eff, err
			}
		case isa.VGAtomicAdd:
			old, err := d.loadGlobal(w, in, addr)
			if err != nil {
				return eff, err
			}
			if err := d.storeGlobal(w, in, addr, old+val); err != nil {
				return eff, err
			}
		}
	}
	eff.memBytes = max(lanes*4, 32)
	if in.Op == isa.VGAtomicAdd {
		eff.memBytes *= 2 // read + write
	}
	return eff, nil
}

// execLDSPerLane executes v_lload or v_lstore one active lane at a time.
func execLDSPerLane(d *Device, w *Warp, in *isa.Instruction) (effect, error) {
	eff := effect{nextPC: -1}
	addrV, addrU := w.resolveVectorOperand(in.Srcs[0])
	var valV []uint32
	var valU uint32
	if in.Op == isa.VLStore {
		valV, valU = w.resolveVectorOperand(in.Srcs[1])
	}
	lanes := 0
	for lane := 0; lane < isa.WarpSize; lane++ {
		if w.Exec&(1<<uint(lane)) == 0 {
			continue
		}
		lanes++
		addr := addrU + uint32(in.Imm0)
		if addrV != nil {
			addr = addrV[lane] + uint32(in.Imm0)
		}
		idx := int(addr) >> 2
		if addr%4 != 0 || idx < 0 || idx >= len(w.LDS.Data) {
			return eff, d.fault(w, in, "LDS address %#x out of range (lds %d bytes)", addr, len(w.LDS.Data)*4)
		}
		if in.Op == isa.VLLoad {
			w.VRegs[in.Dst.Index][lane] = w.LDS.Data[idx]
		} else {
			val := valU
			if valV != nil {
				val = valV[lane]
			}
			w.LDS.Data[idx] = val
		}
	}
	eff.ldsBytes = lanes * 4
	return eff, nil
}

// laneWiseVALU lists every vector ALU opcode that operates lane by lane:
// all of them except the cross-file v_readlane and v_writelane.
func laneWiseVALU() []isa.Op {
	var ops []isa.Op
	for op := isa.Op(1); op.Info().Name != ""; op++ {
		if op.Info().Class == isa.ClassVectorALU && op != isa.VReadLane && op != isa.VWriteLane {
			ops = append(ops, op)
		}
	}
	return ops
}

// edgeBits are lane values chosen to hit the corners of both the integer
// and the binary32 readings of a register: NaNs, signed zeros,
// infinities, denormals, values outside the int32 range, and the int32
// extremes.
var edgeBits = []uint32{
	0x7FC00000, 0xFFC00000, 0x7F800001, 0x7FBFFFFF, // quiet and signaling NaNs
	0x00000000, 0x80000000, // +0, -0
	0x7F800000, 0xFF800000, // +Inf, -Inf
	0x00000001, 0x007FFFFF, 0x80000001, 0x807FFFFF, // denormals
	0x4F000000, 0xCF000001, 0x5F000000, 0xDF000000, // 2^31, just below -2^31, ±2^63
	0x3FC00000, 0xBFC00000, 0x3F000000, 0xBF000000, // ±1.5, ±0.5
	0x7F7FFFFF, 0xFF7FFFFF, // ±max finite
	0x7FFFFFFF, 0x00000001, 0xFFFFFFFF, 31, 32, 33, 64,
}

// laneValue draws a register lane: an edge value half the time, random
// bits otherwise.
func laneValue(rng *rand.Rand) uint32 {
	if rng.Intn(2) == 0 {
		return edgeBits[rng.Intn(len(edgeBits))]
	}
	return rng.Uint32()
}

const diffVRegs, diffSRegs = 4, 16

// diffWarp is a warp with randomized registers over a diffVRegs x
// diffSRegs program.
func diffWarp(rng *rand.Rand) *Warp {
	prog := &isa.Program{Name: "diff", NumVRegs: diffVRegs, NumSRegs: diffSRegs,
		Instrs: []isa.Instruction{{Op: isa.SEndpgm}}}
	w := newWarp(3, 1, 0, prog, nil, nil)
	w.SM = &SM{}
	for _, v := range w.VRegs {
		for l := range v {
			v[l] = laneValue(rng)
		}
	}
	for i := range w.SRegs {
		w.SRegs[i] = uint64(laneValue(rng))<<32 | uint64(laneValue(rng))
	}
	w.VCC = rng.Uint64()
	w.SCC = rng.Intn(2) == 0
	return w
}

// cloneWarp copies the architectural registers the vector executors
// touch.
func cloneWarp(w *Warp) *Warp {
	c := newWarp(w.ID, w.BlockID, w.WarpInBlk, w.Prog, w.LDS, nil)
	c.SM = &SM{}
	for i := range w.VRegs {
		copy(c.VRegs[i], w.VRegs[i])
	}
	copy(c.SRegs, w.SRegs)
	c.PC, c.Exec, c.VCC, c.SCC = w.PC, w.Exec, w.VCC, w.SCC
	return c
}

// sameRegs reports the first architectural register that differs.
func sameRegs(t *testing.T, what string, got, want *Warp) {
	t.Helper()
	for i := range want.VRegs {
		for l := range want.VRegs[i] {
			if got.VRegs[i][l] != want.VRegs[i][l] {
				t.Fatalf("%s: v%d lane %d = %#x, per-lane %#x", what, i, l, got.VRegs[i][l], want.VRegs[i][l])
			}
		}
	}
	for i := range want.SRegs {
		if got.SRegs[i] != want.SRegs[i] {
			t.Fatalf("%s: s%d = %#x, per-lane %#x", what, i, got.SRegs[i], want.SRegs[i])
		}
	}
	if got.VCC != want.VCC || got.Exec != want.Exec || got.SCC != want.SCC {
		t.Fatalf("%s: vcc/exec/scc = %#x/%#x/%v, per-lane %#x/%#x/%v", what,
			got.VCC, got.Exec, got.SCC, want.VCC, want.Exec, want.SCC)
	}
}

// operandKinds names the four source forms of a vector-context operand.
var operandKinds = []string{"vector", "scalar", "special", "imm"}

func drawOperand(rng *rand.Rand, kind string) isa.Operand {
	switch kind {
	case "vector":
		return isa.R(isa.V(rng.Intn(diffVRegs)))
	case "scalar":
		return isa.R(isa.S(rng.Intn(diffSRegs)))
	case "special":
		return isa.R([]isa.Reg{isa.Exec, isa.VCC, isa.SCC}[rng.Intn(3)])
	}
	return isa.ImmU(laneValue(rng))
}

// execCases are the EXEC masks every differential case runs under: full,
// random partial, one lane, and none.
func execCases(rng *rand.Rand) []uint64 {
	return []uint64{^uint64(0), rng.Uint64(), 1 << uint(rng.Intn(isa.WarpSize)), 0}
}

func isNaN32(u uint32) bool { return math.IsNaN(float64(math.Float32frombits(u))) }

// nanChoiceOpen reports whether lane l of in adds or multiplies two NaNs
// (for v_mad_f32, a NaN product and a NaN addend count too). Which NaN's
// payload a commutative float op returns is left open by IEEE 754 and
// the Go spec: the compiler orders the operands per compile site, and
// the reference compiled with -race orders them differently from a plain
// build. There both executors must return a NaN, but not the same one.
func nanChoiceOpen(w *Warp, in *isa.Instruction, l int) bool {
	var src [3]uint32
	for i := 0; i < in.NumSrcs(); i++ {
		v, u := w.resolveVectorOperand(in.Srcs[i])
		if v != nil {
			u = v[l]
		}
		src[i] = u
	}
	a, b, c := src[0], src[1], src[2]
	switch in.Op {
	case isa.VAddF, isa.VMulF:
		return isNaN32(a) && isNaN32(b)
	case isa.VMadF:
		p := math.Float32bits(math.Float32frombits(a) * math.Float32frombits(b))
		return isNaN32(a) && isNaN32(b) || isNaN32(p) && isNaN32(c)
	}
	return false
}

// lanesIntact fails unless every immediate lane vector e reads still
// holds its immediate: the table shares them, so an execution that
// wrote one would corrupt every later execution of the program.
func lanesIntact(t *testing.T, what string, e *isa.Decoded) {
	t.Helper()
	for i, v := range e.Lanes {
		if v == nil {
			continue
		}
		for l, x := range v {
			if x != e.In.Srcs[i].Imm {
				t.Fatalf("%s: immediate lanes of source %d overwritten at lane %d", what, i, l)
			}
		}
	}
}

// TestOpMajorVALUMatchesPerLane differentially checks the op-major vector
// ALU against the per-lane reference for every lane-wise op, with each
// source as a vector, scalar, special or immediate operand, under full,
// partial, single-lane and zero EXEC, with the destination both distinct
// from and aliasing a source, over lane values that include NaN, ±0,
// ±Inf, denormals and floats outside the int32 range. Each instruction
// runs decoded both as a kernel instruction (from its program's table)
// and as a one-instruction routine stream. Every
// vector register, scalar register, VCC, EXEC and SCC must match bit
// for bit, save the one choice nanChoiceOpen describes.
func TestOpMajorVALUMatchesPerLane(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := mustNewDevice(TestConfig())
	ops := laneWiseVALU()
	if len(ops) != 33 {
		t.Fatalf("%d lane-wise VALU ops, want 33", len(ops))
	}
	for _, op := range ops {
		n := op.Info().NumSrc
		combos := 1
		for i := 0; i < n; i++ {
			combos *= len(operandKinds)
		}
		for combo := 0; combo < combos; combo++ {
			kinds := make([]string, n)
			for i, k := 0, combo; i < n; i, k = i+1, k/len(operandKinds) {
				kinds[i] = operandKinds[k%len(operandKinds)]
			}
			for trial := 0; trial < 3; trial++ {
				in := isa.Instruction{Op: op}
				for i, k := range kinds {
					in.Srcs[i] = drawOperand(rng, k)
				}
				if op.Info().HasDst {
					in.Dst = isa.V(rng.Intn(diffVRegs))
					// Trial 0 writes in place over the first vector source.
					for i := 0; i < n && trial == 0; i++ {
						if in.Srcs[i].IsReg() && in.Srcs[i].Reg.IsVector() {
							in.Dst = in.Srcs[i].Reg
							break
						}
					}
				}
				for _, exec := range execCases(rng) {
					w := diffWarp(rng)
					w.Exec = exec
					orig, ref := cloneWarp(w), cloneWarp(w)
					execVectorALUPerLane(ref, &in)
					for _, form := range []struct {
						name string
						w    *Warp
						e    *isa.Decoded
					}{{"kernel", w, kernelDecoded(t, w, in)}, {"routine", cloneWarp(orig), routineDecoded(w, &in)}} {
						if _, err := d.execute(form.w, form.e); err != nil {
							t.Fatalf("%s: %v", in.String(), err)
						}
						lanesIntact(t, in.String(), form.e)
						if in.Dst.IsVector() {
							got, want := form.w.VRegs[in.Dst.Index], ref.VRegs[in.Dst.Index]
							for l := range got {
								if got[l] != want[l] && isNaN32(got[l]) && isNaN32(want[l]) && nanChoiceOpen(orig, &in, l) {
									got[l] = want[l]
								}
							}
						}
						sameRegs(t, fmt.Sprintf("%s (%s) exec %#x", in.String(), form.name, exec), form.w, ref)
					}
				}
			}
		}
	}
}

// TestOpMajorVectorGlobalMatchesPerLane differentially checks vector
// loads, stores and atomic adds against the per-lane reference: address
// and value sources of every form, partial EXEC, duplicate addresses
// within one atomic or store, lanes that straddle a page boundary, loads
// and atomics on a page with no storage, the final partial page, and a
// misaligned or out-of-range address at the first, a middle and the last
// active lane. Results, the effect, the error text, memory, which pages
// have storage and every register must match; a fault must leave exactly
// the earlier lanes landed.
func TestOpMajorVectorGlobalMatchesPerLane(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Three whole pages and a final partial one. Pages 0, 1 and 3 hold
	// random words around the windows below; page 2 has no storage.
	const memWords = 3*PageWords + 64
	// Each trial draws its addresses from one 64-word window: the bottom
	// of memory, across the page 0|1 boundary, across the boundary into
	// page 2, inside page 2, and the final partial page up to the end of
	// memory.
	const window = 64
	windows := []int{0, PageWords - window/2, 2*PageWords - window/2, 2*PageWords + 1000, 3 * PageWords}
	filled := []int{0, PageWords - window/2, 3 * PageWords}
	badAddrs := []uint32{2, 4*memWords - 3, 4 * memWords, 4*memWords + 4, 0xFFFFFFFC, 0x80000000}
	active := func(exec uint64) []int {
		var ls []int
		for l := 0; l < isa.WarpSize; l++ {
			if exec&(1<<uint(l)) != 0 {
				ls = append(ls, l)
			}
		}
		return ls
	}
	var faults int
	for _, op := range []isa.Op{isa.VGLoad, isa.VGStore, isa.VGAtomicAdd} {
		for trial := 0; trial < 300; trial++ {
			w := diffWarp(rng)
			w.Exec = []uint64{^uint64(0), rng.Uint64(), rng.Uint64() & rng.Uint64(), 0}[trial%4]
			// addr draws an aligned byte address among the window's first
			// span words, less the offset, so lanes collide.
			lo, span := windows[rng.Intn(len(windows))], 1+rng.Intn(window)
			in := isa.Instruction{Op: op, Imm0: int32(4 * rng.Intn(window/2))}
			addr := func() uint32 { return uint32(lo+rng.Intn(span))*4 - uint32(in.Imm0) }
			for l := range w.VRegs[0] {
				w.VRegs[0][l] = addr()
			}
			switch trial % 5 {
			case 0: // uniform address: every lane hits one word
				in.Srcs[0] = isa.R(isa.S(1))
				w.SRegs[1] = uint64(addr())
			case 1:
				in.Srcs[0] = isa.ImmU(addr())
			default:
				in.Srcs[0] = isa.R(isa.V(0))
			}
			if op == isa.VGLoad {
				in.Dst = isa.V(rng.Intn(diffVRegs)) // may alias the address register
			} else {
				in.Srcs[1] = drawOperand(rng, operandKinds[rng.Intn(len(operandKinds))])
			}
			// One in three trials plants a bad address at the first, a
			// middle or the last active lane: one of badAddrs, or a
			// misaligned one inside the window's page.
			if lanes := active(w.Exec); trial%3 == 0 && len(lanes) > 0 && in.Srcs[0].Reg.IsVector() {
				at := []int{lanes[0], lanes[len(lanes)/2], lanes[len(lanes)-1]}[trial/3%3]
				bad := uint32(4*lo + 1 + rng.Intn(3))
				if rng.Intn(2) == 0 {
					bad = badAddrs[rng.Intn(len(badAddrs))]
				}
				w.VRegs[0][at] = bad - uint32(in.Imm0)
			}

			d := mustNewDevice(TestConfig())
			d.Mem = NewMemory(memWords)
			for _, at := range filled {
				for i := at; i < at+window; i++ {
					d.Mem.Store(i, rng.Uint32())
				}
			}
			ref := mustNewDevice(TestConfig())
			ref.Mem = d.Mem.Clone()
			rw := cloneWarp(w)

			e := kernelDecoded(t, w, in)
			eff, err := d.execute(w, e)
			lanesIntact(t, in.String(), e)
			refEff, refErr := execVectorGlobalPerLane(ref, rw, &in)
			what := in.String()
			if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
				t.Fatalf("%s: error %v, per-lane %v", what, err, refErr)
			}
			if err != nil {
				faults++
			}
			if eff != refEff {
				t.Fatalf("%s: effect %+v, per-lane %+v", what, eff, refEff)
			}
			if i := d.Mem.Diff(ref.Mem); i >= 0 {
				t.Fatalf("%s: mem[%d] = %#x, per-lane %#x", what, i, d.Mem.Load(i), ref.Mem.Load(i))
			}
			for pi := range d.Mem.pages {
				if (d.Mem.pages[pi] == nil) != (ref.Mem.pages[pi] == nil) {
					t.Fatalf("%s: page %d has storage %v, per-lane %v", what, pi, d.Mem.pages[pi] != nil, ref.Mem.pages[pi] != nil)
				}
			}
			if zeroPage != (page{}) {
				t.Fatalf("%s: wrote to the shared zero page", what)
			}
			sameRegs(t, what, w, rw)
		}
	}
	if faults < 30 {
		t.Fatalf("only %d faulting cases; the fault paths are under-exercised", faults)
	}
}

// TestOpMajorLDSMatchesPerLane differentially checks LDS loads and stores
// against the per-lane reference: vector, scalar and immediate address
// sources, value sources of every form, full, partial, single-lane and
// zero EXEC, a load whose destination aliases its address register, and
// a misaligned or out-of-range address at the first, a middle and the
// last active lane. Odd trials decode the instruction as a routine
// stream, even ones as a kernel instruction.
// The effect, the error text, the LDS and every register must match; a
// fault must leave exactly the earlier lanes landed.
func TestOpMajorLDSMatchesPerLane(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const ldsWords = 256
	active := func(exec uint64) []int {
		var ls []int
		for l := 0; l < isa.WarpSize; l++ {
			if exec&(1<<uint(l)) != 0 {
				ls = append(ls, l)
			}
		}
		return ls
	}
	var faults, aliased int
	d := mustNewDevice(TestConfig())
	for _, op := range []isa.Op{isa.VLLoad, isa.VLStore} {
		for trial := 0; trial < 400; trial++ {
			w := diffWarp(rng)
			w.LDS = &LDSBlock{Data: make([]uint32, ldsWords)}
			for i := range w.LDS.Data {
				w.LDS.Data[i] = rng.Uint32()
			}
			w.Exec = []uint64{^uint64(0), rng.Uint64(), 1 << uint(rng.Intn(isa.WarpSize)), 0}[trial%4]
			// Addresses fall in a short window so lanes collide.
			in := isa.Instruction{Op: op, Imm0: int32(4 * rng.Intn(8))}
			lo, span := rng.Intn(ldsWords-48), 1+rng.Intn(32)
			addr := func() uint32 { return uint32(lo+rng.Intn(span))*4 - uint32(in.Imm0) }
			for l := range w.VRegs[0] {
				w.VRegs[0][l] = addr()
			}
			switch trial / 4 % 3 {
			case 0:
				in.Srcs[0] = isa.R(isa.S(1))
				w.SRegs[1] = uint64(addr())
			case 1:
				in.Srcs[0] = isa.ImmU(addr())
			default:
				in.Srcs[0] = isa.R(isa.V(0))
			}
			if op == isa.VLLoad {
				in.Dst = isa.V(rng.Intn(diffVRegs))
				if trial%5 == 0 {
					in.Dst = isa.V(0)
				}
				if in.Srcs[0].IsReg() && in.Srcs[0].Reg == in.Dst {
					aliased++
				}
			} else {
				in.Srcs[1] = drawOperand(rng, operandKinds[rng.Intn(len(operandKinds))])
			}
			// One in three trials plants a bad address at the first, a
			// middle or the last active lane: misaligned, just past the
			// end, or far outside.
			if lanes := active(w.Exec); trial%3 == 0 && len(lanes) > 0 && in.Srcs[0].Reg.IsVector() {
				at := []int{lanes[0], lanes[len(lanes)/2], lanes[len(lanes)-1]}[trial/3%3]
				bad := []uint32{uint32(4*lo + 1 + rng.Intn(3)), 4 * ldsWords, 0xFFFFFFFC}[rng.Intn(3)]
				w.VRegs[0][at] = bad - uint32(in.Imm0)
			}

			rw := cloneWarp(w)
			rw.LDS = &LDSBlock{Data: append([]uint32(nil), w.LDS.Data...)}
			e := kernelDecoded(t, w, in)
			if trial%2 == 1 {
				e = routineDecoded(w, &in)
			}
			eff, err := d.execute(w, e)
			lanesIntact(t, in.String(), e)
			refEff, refErr := execLDSPerLane(d, rw, &in)
			what := in.String()
			if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
				t.Fatalf("%s: error %v, per-lane %v", what, err, refErr)
			}
			if err != nil {
				faults++
			}
			if eff != refEff {
				t.Fatalf("%s: effect %+v, per-lane %+v", what, eff, refEff)
			}
			for i := range w.LDS.Data {
				if w.LDS.Data[i] != rw.LDS.Data[i] {
					t.Fatalf("%s: lds[%d] = %#x, per-lane %#x", what, i, w.LDS.Data[i], rw.LDS.Data[i])
				}
			}
			sameRegs(t, what, w, rw)
		}
	}
	if faults < 40 || aliased < 20 {
		t.Fatalf("%d faulting and %d aliasing cases; the paths are under-exercised", faults, aliased)
	}
}
