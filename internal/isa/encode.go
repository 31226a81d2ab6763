package isa

import (
	"fmt"
	"strings"

	"ctxback/internal/artifact"
)

// Binary program encoding. The paper's runtime transfers kernel code and
// the dedicated preemption routines to device memory (§IV-A); this fixed
// 40-byte-per-instruction format is the concrete representation the
// simulator's host side uses for that transfer, and what the routine
// size/sharing statistics are computed from. It is written and read
// with the repository's one wire codec (artifact.Writer/Reader), so
// decode failures wrap artifact.ErrTruncated, ErrCorrupt or ErrStale.
//
// Layout (little endian):
//
//	header:  magic "CTXB" | version u16 | nameLen u16 | name bytes |
//	         numVRegs u32 | numSRegs u32 | ldsBytes u32 | nInstr u32
//	instr:   op u16 | flags u8 | memSpace i8 |
//	         dst u32 | imm0 i32 | target i32 |
//	         3 x (kind u8, pad u8[3], payload u32)
//
// The decoders accept exactly the bytes the encoders write — no trailing
// bytes, no non-zero padding, no unknown flag bits, no payload under an
// absent operand — so a decoded program re-encodes byte-identically
// (FuzzDecodeProgram), and they bound the instruction count by the bytes
// present before allocating.
const (
	encMagic       = "CTXB"
	encVersion     = 1
	InstrWordBytes = 40
)

const (
	flagNoOverflow = 1 << 0
)

func encodeReg(r Reg) uint32 { return uint32(r.Class)<<16 | uint32(r.Index) }

// getReg decodes an encodeReg word; a class beyond a byte would not
// re-encode to the same word.
func getReg(r *artifact.Reader) Reg {
	v := r.U32()
	if v>>16 > 0xFF {
		r.Fail(fmt.Errorf("%w: register word %#x", artifact.ErrCorrupt, v))
	}
	return Reg{Class: RegClass(v >> 16), Index: uint16(v)}
}

// EncodeProgram serializes p.
func EncodeProgram(p *Program) []byte {
	w := artifact.NewWriter()
	w.Grow(len(encMagic) + 2 + 2 + len(p.Name) + 16 + len(p.Instrs)*InstrWordBytes)
	w.Header(encMagic, encVersion)
	w.U16(uint16(len(p.Name)))
	copy(w.Extend(len(p.Name)), p.Name)
	w.U32(uint32(p.NumVRegs))
	w.U32(uint32(p.NumSRegs))
	w.U32(uint32(p.LDSBytes))
	putInstrs(w, p.Instrs)
	return w.Data()
}

// EncodeRoutine serializes a bare instruction sequence (a dedicated
// preemption or resume routine). Used for transfer-size accounting.
func EncodeRoutine(instrs []Instruction) []byte {
	w := artifact.NewWriter()
	w.Grow(RoutineBytes(instrs))
	putInstrs(w, instrs)
	return w.Data()
}

func putInstrs(w *artifact.Writer, instrs []Instruction) {
	w.U32(uint32(len(instrs)))
	for i := range instrs {
		in := &instrs[i]
		w.U16(uint16(in.Op))
		var flags uint8
		if in.NoOverflow {
			flags |= flagNoOverflow
		}
		w.U8(flags)
		w.U8(uint8(in.MemSpace))
		w.U32(encodeReg(in.Dst))
		w.I32(int(in.Imm0))
		w.I32(in.Target)
		for _, src := range in.Srcs {
			w.U32(uint32(src.Kind)) // kind u8 | pad u8[3]
			payload := src.Imm
			if src.Kind == OperandReg {
				payload = encodeReg(src.Reg)
			}
			w.U32(payload)
		}
	}
}

// DecodeProgram parses an EncodeProgram buffer.
func DecodeProgram(data []byte) (*Program, error) {
	r := artifact.NewReader(data)
	r.Header(encMagic, encVersion)
	p := &Program{
		Name:     string(r.Take(int(r.U16()))),
		NumVRegs: int(r.U32()),
		NumSRegs: int(r.U32()),
		LDSBytes: int(r.U32()),
		Labels:   map[string]int{},
		Instrs:   getInstrs(r),
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("isa: decode program: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("isa: decode program: %w: %w", artifact.ErrCorrupt, err)
	}
	return p, nil
}

// getInstrs decodes putInstrs.
func getInstrs(r *artifact.Reader) []Instruction {
	instrs := make([]Instruction, r.Count(InstrWordBytes))
	for i := range instrs {
		in := &instrs[i]
		in.Op = Op(r.U16())
		flags := r.U8()
		in.NoOverflow = flags&flagNoOverflow != 0
		in.MemSpace = int16(int8(r.U8()))
		in.Dst = getReg(r)
		in.Imm0 = int32(r.I32())
		in.Target = r.I32()
		for s := range in.Srcs {
			// kind u8 | pad u8[3] reads as the kind itself exactly when
			// the padding is zero.
			switch kind := r.U32(); kind {
			case uint32(OperandNone):
				if payload := r.U32(); payload != 0 {
					r.Fail(fmt.Errorf("%w: instr %d: payload %#x under an absent operand", artifact.ErrCorrupt, i, payload))
				}
			case uint32(OperandReg):
				in.Srcs[s] = R(getReg(r))
			case uint32(OperandImm):
				in.Srcs[s] = ImmU(r.U32())
			default:
				r.Fail(fmt.Errorf("%w: instr %d: operand kind word %#x", artifact.ErrCorrupt, i, kind))
			}
		}
		if in.Op == OpInvalid || in.Op >= opCount || flags&^flagNoOverflow != 0 {
			r.Fail(fmt.Errorf("%w: instr %d: opcode %d, flags %#x", artifact.ErrCorrupt, i, in.Op, flags))
		}
		if r.Err() != nil {
			return nil
		}
	}
	return instrs
}

// DecodeRoutine parses an EncodeRoutine buffer back into a bare
// instruction sequence. Inverse of EncodeRoutine: device snapshots use
// the pair to round-trip the routine stream of a warp captured mid
// preemption or resume.
func DecodeRoutine(data []byte) ([]Instruction, error) {
	r := artifact.NewReader(data)
	instrs := getInstrs(r)
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("isa: decode routine: %w", err)
	}
	return instrs, nil
}

// RoutineBytes returns the device-memory footprint of a routine when
// transferred (paper §IV-A's storage-cost accounting).
func RoutineBytes(instrs []Instruction) int { return 4 + len(instrs)*InstrWordBytes }

// FormatRoutine renders a routine for human inspection.
func FormatRoutine(instrs []Instruction) string {
	var b strings.Builder
	for i := range instrs {
		fmt.Fprintf(&b, "%4d:  %s\n", i, instrs[i].String())
	}
	return b.String()
}
