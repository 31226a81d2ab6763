// Package isa defines a compact SIMT instruction set modeled on GCN-style
// GPU assembly: per-warp scalar registers, per-lane vector registers, an
// EXEC mask, LDS (shared memory), and global device memory. It is the
// common representation consumed by the compiler analyses in
// internal/cfg, internal/liveness and internal/core, and executed by the
// simulator in internal/sim.
package isa

import (
	"fmt"
	"math/bits"
	"strconv"
)

// WarpSize is the number of lanes per warp (GCN wavefront size).
const WarpSize = 64

// RegClass distinguishes the register files.
type RegClass uint8

const (
	// RegNone marks an absent register (zero value).
	RegNone RegClass = iota
	// RegScalar is a per-warp scalar register (4 bytes of architectural
	// context per warp; held as 64 bits in the simulator).
	RegScalar
	// RegVector is a per-lane vector register (WarpSize x 4 bytes of
	// context per warp).
	RegVector
	// RegSpecial is one of the architectural special registers (EXEC,
	// VCC, SCC).
	RegSpecial
)

func (c RegClass) String() string {
	switch c {
	case RegNone:
		return "none"
	case RegScalar:
		return "scalar"
	case RegVector:
		return "vector"
	case RegSpecial:
		return "special"
	}
	return fmt.Sprintf("RegClass(%d)", uint8(c))
}

// Special register indices (Class == RegSpecial).
const (
	SpecExec = 0 // 64-bit execution mask
	SpecVCC  = 1 // 64-bit vector condition code
	SpecSCC  = 2 // 1-bit scalar condition code
)

// Reg identifies one architectural register.
type Reg struct {
	Class RegClass
	Index uint16
}

// Convenience constructors.

// S returns the scalar register s<i>.
func S(i int) Reg { return Reg{Class: RegScalar, Index: uint16(i)} }

// V returns the vector register v<i>.
func V(i int) Reg { return Reg{Class: RegVector, Index: uint16(i)} }

// Special registers.
var (
	Exec = Reg{Class: RegSpecial, Index: SpecExec}
	VCC  = Reg{Class: RegSpecial, Index: SpecVCC}
	SCC  = Reg{Class: RegSpecial, Index: SpecSCC}
)

// Valid reports whether r names a register (is not the zero Reg).
func (r Reg) Valid() bool { return r.Class != RegNone }

// IsVector reports whether r is a vector register.
func (r Reg) IsVector() bool { return r.Class == RegVector }

// IsScalar reports whether r is a scalar register.
func (r Reg) IsScalar() bool { return r.Class == RegScalar }

// ContextBytes is the number of bytes of per-warp context this register
// contributes when saved to device memory. Scalar registers are
// architecturally 4 bytes; vector registers hold 4 bytes per lane; the
// 64-bit specials (EXEC, VCC) cost 8 and SCC costs 4.
func (r Reg) ContextBytes() int {
	switch r.Class {
	case RegScalar:
		return 4
	case RegVector:
		return 4 * WarpSize
	case RegSpecial:
		if r.Index == SpecSCC {
			return 4
		}
		return 8
	}
	return 0
}

func (r Reg) String() string { return string(r.appendText(nil)) }

func (r Reg) appendText(b []byte) []byte {
	switch r.Class {
	case RegScalar:
		return strconv.AppendUint(append(b, 's'), uint64(r.Index), 10)
	case RegVector:
		return strconv.AppendUint(append(b, 'v'), uint64(r.Index), 10)
	case RegSpecial:
		switch r.Index {
		case SpecExec:
			return append(b, "exec"...)
		case SpecVCC:
			return append(b, "vcc"...)
		case SpecSCC:
			return append(b, "scc"...)
		}
		return strconv.AppendUint(append(b, "spec"...), uint64(r.Index), 10)
	}
	return append(b, "r?"...)
}

// Register-set capacity per class. A RegSet is a fixed-size bitset, so
// Program.Validate rejects register counts beyond these limits; every
// program in the repository uses far fewer (GCN itself has 256 VGPRs and
// ~100 SGPRs per wave).
const (
	MaxVRegs    = 256
	MaxSRegs    = 128
	MaxSpecials = 64
)

// Word layout of a RegSet: scalar words, then vector words, then the
// special word — the RegClass order, so walking the words low to high
// visits members in Sorted order.
const (
	setSWords = MaxSRegs / 64
	setVWords = MaxVRegs / 64
	setVBase  = setSWords
	setXBase  = setSWords + setVWords
	setWords  = setXBase + 1
)

// RegSet is a set of registers held as a fixed-capacity bitset. It is a
// plain value: the zero value is the empty set, an assignment copies it,
// and == compares membership. Methods that mutate take a pointer, so a
// function that must update a caller's set takes *RegSet.
type RegSet struct {
	w [setWords]uint64
}

// InRegSet reports whether r fits a RegSet: a scalar, vector or special
// register whose index is below its class capacity.
func (r Reg) InRegSet() bool {
	_, _, ok := setBit(r)
	return ok
}

// setBit locates r's bit; ok is false when r does not fit a RegSet.
func setBit(r Reg) (word int, mask uint64, ok bool) {
	i := int(r.Index)
	switch r.Class {
	case RegScalar:
		if i < MaxSRegs {
			return i >> 6, 1 << uint(i&63), true
		}
	case RegVector:
		if i < MaxVRegs {
			return setVBase + i>>6, 1 << uint(i&63), true
		}
	case RegSpecial:
		if i < MaxSpecials {
			return setXBase, 1 << uint(i), true
		}
	}
	return 0, 0, false
}

// setReg is the register at bit b of word w (the inverse of setBit).
func setReg(w, b int) Reg {
	switch {
	case w < setVBase:
		return Reg{Class: RegScalar, Index: uint16(w<<6 + b)}
	case w < setXBase:
		return Reg{Class: RegVector, Index: uint16((w-setVBase)<<6 + b)}
	}
	return Reg{Class: RegSpecial, Index: uint16(b)}
}

// NewRegSet returns a set containing the given registers.
func NewRegSet(regs ...Reg) RegSet {
	var s RegSet
	for _, r := range regs {
		s.Add(r)
	}
	return s
}

// Add inserts r. It panics when r does not fit a RegSet (see InRegSet);
// Program.Validate keeps every register of a valid program in range.
func (s *RegSet) Add(r Reg) {
	w, m, ok := setBit(r)
	if !ok {
		panic(fmt.Sprintf("isa: register %s (class %d) outside RegSet capacity", r, r.Class))
	}
	s.w[w] |= m
}

// Remove deletes r (a no-op for registers outside the set's capacity).
func (s *RegSet) Remove(r Reg) {
	if w, m, ok := setBit(r); ok {
		s.w[w] &^= m
	}
}

// Has reports membership.
func (s RegSet) Has(r Reg) bool {
	w, m, ok := setBit(r)
	return ok && s.w[w]&m != 0
}

// AddAll inserts every register of o.
func (s *RegSet) AddAll(o RegSet) {
	for i := range s.w {
		s.w[i] |= o.w[i]
	}
}

// RemoveAll deletes every register of o.
func (s *RegSet) RemoveAll(o RegSet) {
	for i := range s.w {
		s.w[i] &^= o.w[i]
	}
}

// Intersects reports whether s and o share any register.
func (s RegSet) Intersects(o RegSet) bool {
	for i := range s.w {
		if s.w[i]&o.w[i] != 0 {
			return true
		}
	}
	return false
}

// OfClass returns the members of register class c.
func (s RegSet) OfClass(c RegClass) RegSet {
	var o RegSet
	switch c {
	case RegScalar:
		copy(o.w[:setVBase], s.w[:setVBase])
	case RegVector:
		copy(o.w[setVBase:setXBase], s.w[setVBase:setXBase])
	case RegSpecial:
		o.w[setXBase] = s.w[setXBase]
	}
	return o
}

// Len returns the number of members.
func (s RegSet) Len() int {
	n := 0
	for _, w := range s.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// ContextBytes sums the context cost of every member (Reg.ContextBytes).
func (s RegSet) ContextBytes() int {
	n := 0
	for i, w := range s.w {
		switch {
		case i < setVBase:
			n += 4 * bits.OnesCount64(w)
		case i < setXBase:
			n += 4 * WarpSize * bits.OnesCount64(w)
		default:
			n += 8*bits.OnesCount64(w) - 4*int(w>>SpecSCC&1)
		}
	}
	return n
}

// Append appends the members to dst in Sorted order (class, then index)
// and returns the extended slice. It is the set's iteration: callers
// that walk sets in a loop pass a reused buffer.
func (s RegSet) Append(dst []Reg) []Reg {
	for i, w := range s.w {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			dst = append(dst, setReg(i, b))
		}
	}
	return dst
}

// Sorted returns the members in a deterministic order (class, then
// index) as a fresh slice.
func (s RegSet) Sorted() []Reg { return s.Append(make([]Reg, 0, s.Len())) }
