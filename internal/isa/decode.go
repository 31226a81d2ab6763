package isa

import "slices"

// NumSpecRegs is the number of special registers: EXEC, VCC and SCC.
const NumSpecRegs = SpecSCC + 1

// Slot returns r's index in the flat register numbering of a warp with
// nv vector and ns scalar registers: the vector registers first, then
// the scalar ones, then EXEC, VCC and SCC, nv+ns+NumSpecRegs slots in
// all. ok is false when the warp has no such register.
func Slot(r Reg, nv, ns int) (slot int, ok bool) {
	i := int(r.Index)
	switch r.Class {
	case RegVector:
		return i, i < nv
	case RegScalar:
		return nv + i, i < ns
	case RegSpecial:
		return nv + ns + i, i < NumSpecRegs
	}
	return 0, false
}

// Decoded is one instruction's static facts in the form the simulator's
// issue path reads them, for a warp numbered by Slot. It is a plain
// value: decoding allocates nothing.
type Decoded struct {
	In   *Instruction
	Info *OpInfo
	// Lanes holds, for each immediate source the op reads per lane, the
	// immediate over every lane of a warp; it is nil for register
	// sources and for instructions decoded outside a program's Table.
	// The vectors are shared: never write through them.
	Lanes [MaxSrcs]*[WarpSize]uint32

	// slots holds the slots of the registers In reads (Uses), then of
	// those it writes (Defs); the first uses of them are reads.
	slots  [MaxSrcs + 8]uint16
	uses   uint8
	nslots uint8
}

// Hazards returns the slots of the registers whose in-flight values gate
// the instruction's issue: those it reads (Uses), then those it writes
// (Defs).
func (e *Decoded) Hazards() []uint16 { return e.slots[:e.nslots] }

// Stamps returns the slots of the registers the instruction writes
// (Defs): its destination first, then its implicit defs.
func (e *Decoded) Stamps() []uint16 { return e.slots[e.uses:e.nslots] }

// Decode decodes in for a warp of nv vector and ns scalar registers,
// which must be at most MaxVRegs and MaxSRegs. A register the warp does
// not have gets no slot, so it gates nothing and is stamped by nothing.
// Decode fills no Lanes: a program's Table does, once per program.
func Decode(in *Instruction, nv, ns int) Decoded {
	e := Decoded{In: in, Info: in.Op.Info()}
	var buf [MaxSrcs + 4]Reg
	e.add(in.Uses(buf[:0]), nv, ns)
	e.uses = e.nslots
	e.add(in.Defs(buf[:0]), nv, ns)
	return e
}

func (e *Decoded) add(regs []Reg, nv, ns int) {
	for _, r := range regs {
		if s, ok := Slot(r, nv, ns); ok {
			e.slots[e.nslots] = uint16(s)
			e.nslots++
		}
	}
}

// readsLanes reports whether op reads its sources one value per lane: a
// vector register lane by lane, any other source splatted over the warp.
func readsLanes(op Op) bool {
	switch op.Info().Class {
	case ClassVectorALU:
		return op != VReadLane && op != VWriteLane
	case ClassVectorMem, ClassAtomic, ClassLDSMem:
		return true
	}
	return false
}

// Table is a program decoded for execution: Validate's verdict and, for
// a valid program, one Decoded per PC for a warp of the program's
// allocated register counts.
type Table struct {
	Err  error
	Code []Decoded
}

// Table returns p's decoded table. The first call validates and decodes
// p, and every later call, on p or on any Alias of it, returns that same
// table: a program must not change once it is decoded.
func (p *Program) Table() *Table {
	if t := p.table.Load(); t != nil {
		return t
	}
	// Racing first calls each decode; one table wins, and all return it.
	p.table.CompareAndSwap(nil, p.decode())
	return p.table.Load()
}

func (p *Program) decode() *Table {
	if err := p.Validate(); err != nil {
		return &Table{Err: err}
	}
	// The immediates read per lane, each splatted once into one slab.
	var imms []uint32
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		if !readsLanes(in.Op) {
			continue
		}
		for _, o := range in.SrcOperands() {
			if o.IsImm() && !slices.Contains(imms, o.Imm) {
				imms = append(imms, o.Imm)
			}
		}
	}
	lanes := make([][WarpSize]uint32, len(imms))
	for i, v := range imms {
		for l := range lanes[i] {
			lanes[i][l] = v
		}
	}
	nv, ns := p.AllocatedVRegs(), p.AllocatedSRegs()
	t := &Table{Code: make([]Decoded, len(p.Instrs))}
	for pc := range p.Instrs {
		e := &t.Code[pc]
		*e = Decode(&p.Instrs[pc], nv, ns)
		if !readsLanes(e.In.Op) {
			continue
		}
		for i, o := range e.In.SrcOperands() {
			if o.IsImm() {
				e.Lanes[i] = &lanes[slices.Index(imms, o.Imm)]
			}
		}
	}
	return t
}
