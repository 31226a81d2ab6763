package core

import (
	"strings"
	"testing"

	"ctxback/internal/isa"
)

func compileSmall(t *testing.T) *Compiled {
	t.Helper()
	prog, err := isa.Assemble(`
.kernel inv
.vregs 6
.sregs 12
  v_laneid v0
  v_mov v1, 0
loop:
  v_add v1, v1, s0
  s_sub s0, s0, 1
  s_cmp_gt s0, 0
  s_cbranch_scc1 loop
  v_shl v2, v0, 2 !noovf
  v_gstore v2, v1, 0
  s_endpgm
`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(prog, FeatAll)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCheckInvariantsHoldsForCompiledKernel(t *testing.T) {
	c := compileSmall(t)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckInvariantsCatchesTampering(t *testing.T) {
	c := compileSmall(t)
	// A plan filed under the wrong signal point must be caught.
	orig := c.Plans[2]
	c.Plans[2] = c.Plans[3]
	if err := c.CheckInvariants(); err == nil {
		t.Error("mis-filed plan not caught")
	}
	c.Plans[2] = orig

	// A truncated plan table must be caught.
	trimmed := *c
	trimmed.Plans = c.Plans[:len(c.Plans)-1]
	if err := trimmed.CheckInvariants(); err == nil {
		t.Error("truncated plan table not caught")
	}

	// Two OSRB registers sharing one spare must be caught.
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("baseline no longer valid: %v", err)
	}
	c.OSRB = map[isa.Reg]isa.Reg{isa.S(0): isa.S(30), isa.S(1): isa.S(30)}
	err := c.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "OSRB spare") {
		t.Errorf("duplicate OSRB spare not caught (err = %v)", err)
	}
}

func TestRestoreContract(t *testing.T) {
	c := compileSmall(t)
	for pc := 0; pc < c.Prog.Len(); pc++ {
		set := c.RestoreContract(pc)
		if !set.Has(isa.Exec) {
			t.Fatalf("pc %d: contract missing EXEC", pc)
		}
		for _, r := range c.Live.LiveIn[pc].Sorted() {
			if !set.Has(r) {
				t.Fatalf("pc %d: contract missing live-in %v", pc, r)
			}
		}
	}
}
