package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{S(0), "s0"},
		{S(35), "s35"},
		{V(7), "v7"},
		{Exec, "exec"},
		{VCC, "vcc"},
		{SCC, "scc"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestRegContextBytes(t *testing.T) {
	if got := V(0).ContextBytes(); got != 4*WarpSize {
		t.Errorf("vector reg context = %d, want %d", got, 4*WarpSize)
	}
	if got := S(0).ContextBytes(); got != 4 {
		t.Errorf("scalar reg context = %d, want 4", got)
	}
	if got := Exec.ContextBytes(); got != 8 {
		t.Errorf("exec context = %d, want 8", got)
	}
	if got := SCC.ContextBytes(); got != 4 {
		t.Errorf("scc context = %d, want 4", got)
	}
}

func TestRegClassPredicates(t *testing.T) {
	if !V(1).IsVector() || V(1).IsScalar() {
		t.Error("V(1) class predicates wrong")
	}
	if !S(1).IsScalar() || S(1).IsVector() {
		t.Error("S(1) class predicates wrong")
	}
	var zero Reg
	if zero.Valid() {
		t.Error("zero Reg must be invalid")
	}
	if !Exec.Valid() {
		t.Error("Exec must be valid")
	}
}

func TestRegSetBasics(t *testing.T) {
	s := NewRegSet(V(1), S(2), V(1))
	if s.Len() != 2 {
		t.Fatalf("set size = %d, want 2 (dup collapsed)", s.Len())
	}
	if !s.Has(V(1)) || !s.Has(S(2)) || s.Has(V(2)) {
		t.Error("membership wrong")
	}
	s.Remove(V(1))
	if s.Has(V(1)) {
		t.Error("Remove failed")
	}
	s.Add(Exec)
	if !s.Has(Exec) {
		t.Error("Add failed")
	}
}

func TestRegSetCloneIndependence(t *testing.T) {
	s := NewRegSet(V(1), V(2))
	c := s // a copy is a clone
	c.Add(V(3))
	if s.Has(V(3)) {
		t.Error("copy is not independent")
	}
	if s != NewRegSet(V(1), V(2)) {
		t.Error("original mutated")
	}
}

func TestRegSetOps(t *testing.T) {
	a := NewRegSet(V(1), V(2), S(0))
	b := NewRegSet(V(2), S(3))
	a.AddAll(b)
	want := NewRegSet(V(1), V(2), S(0), S(3))
	if a != want {
		t.Errorf("AddAll: got %v want %v", a.Sorted(), want.Sorted())
	}
	a.RemoveAll(b)
	if a != NewRegSet(V(1), S(0)) {
		t.Errorf("RemoveAll: got %v", a.Sorted())
	}
	if !a.Intersects(NewRegSet(S(0))) {
		t.Error("Intersects false negative")
	}
	if a.Intersects(NewRegSet(S(9), V(9))) {
		t.Error("Intersects false positive")
	}
}

func TestRegSetContextBytes(t *testing.T) {
	s := NewRegSet(V(0), V(1), S(0), Exec)
	want := 2*4*WarpSize + 4 + 8
	if got := s.ContextBytes(); got != want {
		t.Errorf("ContextBytes = %d, want %d", got, want)
	}
}

func TestRegSetSortedDeterministic(t *testing.T) {
	s := NewRegSet(V(5), V(1), S(9), S(2), Exec)
	a := s.Sorted()
	b := s.Sorted()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Sorted not deterministic")
		}
	}
	for i := 1; i < len(a); i++ {
		if !regLess(a[i-1], a[i]) {
			t.Fatalf("Sorted out of order at %d: %v", i, a)
		}
	}
}

// Property: set semantics match a reference map implementation under a
// random sequence of add/remove operations.
func TestRegSetQuickSemantics(t *testing.T) {
	f := func(ops []uint16) bool {
		var s RegSet
		ref := map[Reg]bool{}
		for _, o := range ops {
			r := V(int(o % 8))
			if o%3 == 0 {
				r = S(int(o % 8))
			}
			if o%2 == 0 {
				s.Add(r)
				ref[r] = true
			} else {
				s.Remove(r)
				delete(ref, r)
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		for r := range ref {
			if !s.Has(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: union is commutative w.r.t. membership.
func TestRegSetQuickUnionCommutative(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		mk := func(idx []uint8) RegSet {
			var s RegSet
			for _, i := range idx {
				s.Add(V(int(i % 16)))
			}
			return s
		}
		a1, b1 := mk(xs), mk(ys)
		a2, b2 := mk(ys), mk(xs)
		a1.AddAll(b1)
		a2.AddAll(b2)
		return a1 == a2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func regLess(a, b Reg) bool {
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	return a.Index < b.Index
}
