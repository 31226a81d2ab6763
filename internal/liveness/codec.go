package liveness

import (
	"fmt"

	"ctxback/internal/artifact"
	"ctxback/internal/cfg"
	"ctxback/internal/isa"
)

// Binary codec for Info, used by the artifact store. Register sets and
// def chains are written in isa.RegSet.Sorted order, so the encoding is
// canonical and encode∘decode∘encode is byte-identical. The Graph field
// is relinked by the caller (it travels as its own artifact section).

// Minimum encoded sizes, which bound decoded lengths (artifact.Reader.Len).
// RegBytes is EncodeReg's size and RegSetBytes an empty EncodeRegSet's
// (its length). A PC of EncodeInfo is at least three sets, a bool and a
// def-chain length, and a def-chain entry is a register and a PC.
const (
	RegBytes    = 3
	RegSetBytes = 8
	pcBytes     = 3*RegSetBytes + 1 + 8
	chainBytes  = RegBytes + 8
)

// EncodeReg appends one register.
func EncodeReg(w *artifact.Writer, r isa.Reg) {
	w.U8(uint8(r.Class))
	w.U16(r.Index)
}

// DecodeReg reads a register written by EncodeReg. A register that does
// not fit an isa.RegSet fails r: every register of a valid program
// does, so such a payload was not produced from one.
func DecodeReg(r *artifact.Reader) isa.Reg {
	reg := isa.Reg{Class: isa.RegClass(r.U8()), Index: r.U16()}
	if r.Err() == nil && !reg.InRegSet() {
		r.Fail(fmt.Errorf("liveness: decode: register %s (class %d) outside RegSet capacity", reg, reg.Class))
	}
	return reg
}

// EncodeRegSet appends a register set in sorted order.
func EncodeRegSet(s isa.RegSet, w *artifact.Writer) {
	w.Int(s.Len())
	for _, r := range s.Sorted() {
		EncodeReg(w, r)
	}
}

// DecodeRegSet reads a register set written by EncodeRegSet.
func DecodeRegSet(r *artifact.Reader) isa.RegSet {
	var s isa.RegSet
	n := r.Len(RegBytes)
	for i := 0; i < n && r.Err() == nil; i++ {
		if reg := DecodeReg(r); r.Err() == nil {
			s.Add(reg)
		}
	}
	return s
}

// defChain walks the block-local use-define chains in PC order: after
// next(pc), regs holds the registers written earlier in pc's block, in
// Sorted order, and last[reg] the PC of reg's most recent such write.
type defChain struct {
	g       *cfg.Graph
	written isa.RegSet
	last    map[isa.Reg]int
	regs    []isa.Reg
}

func newDefChain(g *cfg.Graph) *defChain {
	return &defChain{g: g, last: make(map[isa.Reg]int)}
}

func (c *defChain) next(pc int) {
	if pc == c.g.BlockOf(pc).Start {
		c.written = isa.RegSet{}
		clear(c.last)
	} else {
		var buf [4]isa.Reg
		for _, r := range c.g.Prog.At(pc - 1).Defs(buf[:0]) {
			c.written.Add(r)
			c.last[r] = pc - 1
		}
	}
	c.regs = c.written.Append(c.regs[:0])
}

// EncodeInfo appends info's per-PC tables to w.
func EncodeInfo(info *Info, w *artifact.Writer) {
	n := len(info.LiveIn)
	w.Int(n)
	chain := newDefChain(info.Graph)
	for pc := 0; pc < n; pc++ {
		EncodeRegSet(info.LiveIn[pc], w)
		EncodeRegSet(info.LiveOut[pc], w)
		w.Bool(info.ExecFullIn[pc])
		EncodeRegSet(info.EscIn[pc], w)
		chain.next(pc)
		w.Int(len(chain.regs))
		for _, reg := range chain.regs {
			EncodeReg(w, reg)
			w.Int(chain.last[reg])
		}
	}
}

// DecodeInfo reads an Info for g written by EncodeInfo. The def chains
// are not stored on Info (LastDefIn derives them from the program), so
// the decoder checks them against g instead: a payload whose chains
// disagree with the program was produced for a different one.
func DecodeInfo(g *cfg.Graph, r *artifact.Reader) (*Info, error) {
	n := r.Len(pcBytes)
	if n != g.Prog.Len() {
		return nil, fmt.Errorf("liveness: decode: %d PCs for a %d-instruction program", n, g.Prog.Len())
	}
	info := &Info{
		Graph:      g,
		LiveIn:     make([]isa.RegSet, n),
		LiveOut:    make([]isa.RegSet, n),
		ExecFullIn: make([]bool, n),
		EscIn:      make([]isa.RegSet, n),
	}
	chain := newDefChain(g)
	for pc := 0; pc < n && r.Err() == nil; pc++ {
		info.LiveIn[pc] = DecodeRegSet(r)
		info.LiveOut[pc] = DecodeRegSet(r)
		info.ExecFullIn[pc] = r.Bool()
		info.EscIn[pc] = DecodeRegSet(r)
		chain.next(pc)
		nd := r.Len(chainBytes)
		if r.Err() == nil && nd != len(chain.regs) {
			r.Fail(fmt.Errorf("liveness: decode: pc %d: %d def-chain entries, program has %d", pc, nd, len(chain.regs)))
		}
		for i := 0; i < nd && r.Err() == nil; i++ {
			reg, def := DecodeReg(r), r.Int()
			if r.Err() == nil && (reg != chain.regs[i] || def != chain.last[reg]) {
				r.Fail(fmt.Errorf("liveness: decode: pc %d: def chain %s@%d disagrees with the program", pc, reg, def))
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return info, nil
}
