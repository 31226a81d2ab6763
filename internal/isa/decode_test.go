package isa_test

import (
	"fmt"
	"slices"
	"testing"

	"ctxback/internal/core"
	"ctxback/internal/isa"
	"ctxback/internal/kernels"
)

// slotOf is the register clock layout spelled out: vector registers
// from 0, then scalar ones, then EXEC, VCC and SCC; -1 for a register
// the warp does not have.
func slotOf(r isa.Reg, nv, ns int) int {
	i := int(r.Index)
	switch {
	case r.Class == isa.RegVector && i < nv:
		return i
	case r.Class == isa.RegScalar && i < ns:
		return nv + i
	case r.Class == isa.RegSpecial && i <= isa.SpecSCC:
		return nv + ns + i
	}
	return -1
}

// checkDecoded requires e to be what Uses, Defs, Op.Info and a splat
// give for in on a warp of nv vector and ns scalar registers. lanes says
// whether e comes from a program's table, which splats the immediates
// of the ops that read their sources per lane (the lane-wise vector ALU
// ops and vector global, atomic and LDS accesses); a routine
// instruction, decoded when fetched, has none.
func checkDecoded(t testing.TB, what string, e *isa.Decoded, in *isa.Instruction, nv, ns int, lanes bool) {
	t.Helper()
	if e.In != in || e.Info != in.Op.Info() {
		t.Fatalf("%s: decoded %p/%p, want the instruction %p and its info", what, e.In, e.Info, in)
	}
	var hazards, stamps []uint16
	defs := in.Defs(nil)
	for _, r := range append(in.Uses(nil), defs...) {
		if s := slotOf(r, nv, ns); s >= 0 {
			hazards = append(hazards, uint16(s))
		}
	}
	for _, r := range defs {
		if s := slotOf(r, nv, ns); s >= 0 {
			stamps = append(stamps, uint16(s))
		}
	}
	if !slices.Equal(e.Hazards(), hazards) || !slices.Equal(e.Stamps(), stamps) {
		t.Fatalf("%s: hazards %v stamps %v, want %v and %v", what, e.Hazards(), e.Stamps(), hazards, stamps)
	}
	perLane := false
	switch in.Op.Info().Class {
	case isa.ClassVectorALU:
		perLane = in.Op != isa.VReadLane && in.Op != isa.VWriteLane
	case isa.ClassVectorMem, isa.ClassAtomic, isa.ClassLDSMem:
		perLane = true
	}
	for i, o := range in.Srcs {
		want := lanes && perLane && i < in.NumSrcs() && o.IsImm()
		if got := e.Lanes[i]; (got != nil) != want {
			t.Fatalf("%s: source %d has lanes %v, want %v", what, i, got != nil, want)
		} else if got != nil && *got != splat(o.Imm) {
			t.Fatalf("%s: source %d lanes %v, want %#x in every lane", what, i, got, o.Imm)
		}
	}
}

func splat(v uint32) (s [isa.WarpSize]uint32) {
	for l := range s {
		s[l] = v
	}
	return s
}

// checkTable requires p's table to hold Validate's verdict, to decode
// every PC as checkDecoded says, and to share one lane vector per
// immediate value.
func checkTable(t testing.TB, p *isa.Program) {
	t.Helper()
	tab := p.Table()
	if err := p.Validate(); fmt.Sprint(err) != fmt.Sprint(tab.Err) {
		t.Fatalf("%s: table verdict %v, Validate %v", p.Name, tab.Err, err)
	}
	if tab.Err != nil {
		if tab.Code != nil {
			t.Fatalf("%s: invalid program decoded", p.Name)
		}
		return
	}
	if len(tab.Code) != p.Len() {
		t.Fatalf("%s: %d entries for %d instructions", p.Name, len(tab.Code), p.Len())
	}
	nv, ns := p.AllocatedVRegs(), p.AllocatedSRegs()
	shared := make(map[uint32]*[isa.WarpSize]uint32)
	for pc := range p.Instrs {
		e := &tab.Code[pc]
		checkDecoded(t, fmt.Sprintf("%s pc %d (%s)", p.Name, pc, p.At(pc)), e, p.At(pc), nv, ns, true)
		for i, v := range e.Lanes {
			if v == nil {
				continue
			}
			imm := e.In.Srcs[i].Imm
			if shared[imm] == nil {
				shared[imm] = v
			} else if shared[imm] != v {
				t.Fatalf("%s pc %d: immediate %#x has a lane vector of its own", p.Name, pc, imm)
			}
		}
	}
	if p.Table() != tab || p.Alias().Table() != tab {
		t.Fatalf("%s: a second call or an alias decoded again", p.Name)
	}
}

// TestDecodedMatchesInstruction checks every decoded entry against Uses,
// Defs, Op.Info and a splat: each instruction of the twelve kernels, the
// regression programs and generator seeds 0-199 as table entries, and
// each instruction of the kernels' CTXBack preempt, resume and backup
// routines, with the technique's framing context ops, as decoded when
// fetched.
func TestDecodedMatchesInstruction(t *testing.T) {
	progs := corpus(t, 200)
	kernelProgs := progs[:12]
	for _, name := range kernels.RegressionNames() {
		p, err := kernels.Regression(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	for _, p := range progs {
		checkTable(t, p)
	}
	framing := []isa.Instruction{{Op: isa.CtxSaveLDS}, {Op: isa.CtxSavePC, Target: 1},
		{Op: isa.CtxExit}, {Op: isa.CtxLoadLDS}, {Op: isa.CtxResume, Target: 1}}
	for _, p := range kernelProgs {
		c, err := core.Compile(p, core.FeatAll)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		routines := append(slices.Clone(c.PreemptRoutines), c.ResumeRoutines...)
		for _, backup := range c.BackupAt {
			routines = append(routines, backup)
		}
		routines = append(routines, framing)
		nv, ns := p.AllocatedVRegs(), p.AllocatedSRegs()
		for ri, r := range routines {
			for i := range r {
				e := isa.Decode(&r[i], nv, ns)
				checkDecoded(t, fmt.Sprintf("%s routine %d [%d] (%s)", p.Name, ri, i, &r[i]), &e, &r[i], nv, ns, false)
			}
		}
	}
	// A routine instruction is decoded on every fetch: that must not
	// allocate.
	in := &isa.Instruction{Op: isa.VMad, Dst: isa.V(1),
		Srcs: [isa.MaxSrcs]isa.Operand{isa.R(isa.V(0)), isa.R(isa.S(2)), isa.Imm(3)}}
	if n := testing.AllocsPerRun(100, func() { sinkDecoded = isa.Decode(in, 4, 16) }); n != 0 {
		t.Fatalf("Decode allocates %v times", n)
	}
}

var sinkDecoded isa.Decoded

// TestTableOfInvalidProgram keeps Validate's error and decodes nothing.
func TestTableOfInvalidProgram(t *testing.T) {
	p := &isa.Program{Name: "bad", NumVRegs: 4, NumSRegs: 16,
		Instrs: []isa.Instruction{{Op: isa.VMov, Dst: isa.V(7), Srcs: [isa.MaxSrcs]isa.Operand{isa.Imm(1)}}}}
	checkTable(t, p)
	if p.Table().Err == nil {
		t.Fatal("invalid program decoded without error")
	}
}
