package isa

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// regPool is the register universe the RegSet property checks draw
// from: every class at indices 0, 63, 64 and the last in capacity, plus
// registers just past capacity and of no class, which a set must reject.
var regPool = func() []Reg {
	var regs []Reg
	for _, c := range []struct {
		class RegClass
		cap   int
	}{{RegScalar, MaxSRegs}, {RegVector, MaxVRegs}, {RegSpecial, MaxSpecials}} {
		for _, i := range []int{0, 1, 2, 5, 63, 64, 65, 127, 128, 255, c.cap - 1, c.cap} {
			regs = append(regs, Reg{Class: c.class, Index: uint16(i)})
		}
	}
	return append(regs, Reg{}, Reg{Index: 3}, Reg{Class: RegSpecial + 1})
}()

func regCap(c RegClass) int {
	switch c {
	case RegScalar:
		return MaxSRegs
	case RegVector:
		return MaxVRegs
	case RegSpecial:
		return MaxSpecials
	}
	return 0
}

// mapSet is the reference a RegSet is checked against.
type mapSet map[Reg]bool

func (m mapSet) sorted() []Reg {
	var out []Reg
	for r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return regLess(out[i], out[j]) })
	return out
}

// checkRegSetOps interprets ops as a program over two sets and their
// map oracles, checking every RegSet method against the oracle after
// each step.
func checkRegSetOps(t *testing.T, ops []byte) {
	t.Helper()
	var sets [2]RegSet
	refs := [2]mapSet{{}, {}}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		x := int(op>>4) & 1
		s, ref := &sets[x], refs[x]
		o, oref := sets[1-x], refs[1-x]
		r := regPool[int(arg)%len(regPool)]
		fits := int(r.Index) < regCap(r.Class)
		if r.InRegSet() != fits {
			t.Fatalf("%v.InRegSet() = %v, want %v", r, r.InRegSet(), fits)
		}
		switch op % 6 {
		case 0, 1:
			if !fits {
				if !panics(func() { s.Add(r) }) {
					t.Fatalf("Add(%v) beyond capacity did not panic", r)
				}
				continue
			}
			s.Add(r)
			ref[r] = true
		case 2:
			s.Remove(r)
			delete(ref, r)
		case 3:
			s.AddAll(o)
			for m := range oref {
				ref[m] = true
			}
		case 4:
			s.RemoveAll(o)
			for m := range oref {
				delete(ref, m)
			}
		case 5:
			c := *s // a copy is a clone
			c.Add(V(0))
			if !ref[V(0)] && s.Has(V(0)) {
				t.Fatal("mutating a copy changed the original")
			}
		}
		checkAgainst(t, *s, ref)
		inter := false
		for m := range ref {
			inter = inter || oref[m]
		}
		if got := s.Intersects(o); got != inter {
			t.Fatalf("Intersects = %v, oracle %v", got, inter)
		}
		if eq := (*s == o); eq != slices.Equal(ref.sorted(), oref.sorted()) {
			t.Fatalf("== is %v for %v and %v", eq, s.Sorted(), o.Sorted())
		}
	}
}

func checkAgainst(t *testing.T, s RegSet, ref mapSet) {
	t.Helper()
	for _, r := range regPool {
		if s.Has(r) != ref[r] {
			t.Fatalf("Has(%v) = %v, oracle %v", r, s.Has(r), ref[r])
		}
	}
	want := ref.sorted()
	if got := s.Sorted(); !slices.Equal(got, want) {
		t.Fatalf("Sorted = %v, oracle %v", got, want)
	}
	prefix := []Reg{Exec}
	if got := s.Append(prefix); !slices.Equal(got, append([]Reg{Exec}, want...)) {
		t.Fatalf("Append = %v, oracle %v", got, want)
	}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, oracle %d", s.Len(), len(want))
	}
	bytes := 0
	for _, r := range want {
		bytes += r.ContextBytes()
	}
	if s.ContextBytes() != bytes {
		t.Fatalf("ContextBytes = %d, oracle %d", s.ContextBytes(), bytes)
	}
	if NewRegSet(want...) != s {
		t.Fatalf("NewRegSet(Sorted()) differs from the set")
	}
	var union RegSet
	for _, c := range []RegClass{RegScalar, RegVector, RegSpecial} {
		part := s.OfClass(c)
		for _, r := range part.Sorted() {
			if r.Class != c {
				t.Fatalf("OfClass(%v) holds %v", c, r)
			}
		}
		union.AddAll(part)
	}
	if union != s {
		t.Fatal("the OfClass parts do not make up the set")
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestRegSetMatchesMapOracle drives random operation sequences through
// checkRegSetOps.
func TestRegSetMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 300; n++ {
		ops := make([]byte, 2*(1+rng.Intn(40)))
		rng.Read(ops)
		checkRegSetOps(t, ops)
	}
}

func FuzzRegSet(f *testing.F) {
	f.Add([]byte{0, 0, 1, 3, 16, 4, 3, 0, 2, 3})
	f.Add([]byte{0, 11, 0, 23, 0, 35, 5, 0, 4, 1})
	f.Fuzz(checkRegSetOps)
}

// TestRegSetZeroValueEmpty: the zero value is the empty set.
func TestRegSetZeroValueEmpty(t *testing.T) {
	var s RegSet
	if s.Len() != 0 || s.ContextBytes() != 0 || len(s.Sorted()) != 0 || s != NewRegSet() {
		t.Fatal("zero RegSet is not empty")
	}
}
