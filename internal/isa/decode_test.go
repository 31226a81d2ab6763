package isa_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ctxback/internal/isa"
	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
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
// give for in on a warp of nv vector and ns scalar registers: every
// stream splats the immediates of the ops that read their sources per
// lane (the lane-wise vector ALU ops and vector global, atomic and LDS
// accesses).
func checkDecoded(t testing.TB, what string, e *isa.Decoded, in *isa.Instruction, nv, ns int) {
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
		want := perLane && i < in.NumSrcs() && o.IsImm()
		if got := e.Lanes[i]; (got != nil) != want {
			t.Fatalf("%s: source %d has lanes %v, want %v", what, i, got != nil, want)
		} else if got != nil && *got != splat(o.Imm) {
			t.Fatalf("%s: source %d lanes %v, want %#x in every lane", what, i, got, o.Imm)
		}
	}
}

// checkStream requires every entry of a decoded stream to decode the
// instruction it points to as checkDecoded says, and the stream to share
// one lane vector per immediate value.
func checkStream(t testing.TB, what string, code []isa.Decoded, nv, ns int) {
	t.Helper()
	shared := make(map[uint32]*[isa.WarpSize]uint32)
	for i := range code {
		e := &code[i]
		checkDecoded(t, fmt.Sprintf("%s [%d] (%s)", what, i, e.In), e, e.In, nv, ns)
		for j, v := range e.Lanes {
			if v == nil {
				continue
			}
			imm := e.In.Srcs[j].Imm
			if shared[imm] == nil {
				shared[imm] = v
			} else if shared[imm] != v {
				t.Fatalf("%s [%d]: immediate %#x has a lane vector of its own", what, i, imm)
			}
		}
	}
}

func splat(v uint32) (s [isa.WarpSize]uint32) {
	for l := range s {
		s[l] = v
	}
	return s
}

// checkTable requires p's table to hold Validate's verdict and, for a
// valid p, to decode its instructions as checkStream says, one entry per
// PC.
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
	for pc := range p.Instrs {
		if tab.Code[pc].In != p.At(pc) {
			t.Fatalf("%s pc %d: entry decodes another instruction", p.Name, pc)
		}
	}
	checkStream(t, p.Name, tab.Code, p.AllocatedVRegs(), p.AllocatedSRegs())
	if p.Table() != tab || p.Alias().Table() != tab {
		t.Fatalf("%s: a second call or an alias decoded again", p.Name)
	}
}

// victim launches wl with tech attached, preempts SM 0 and runs until a
// victim has entered its preemption routine: a warp with a context
// buffer and a preemption record. It returns the warp and the number of
// warps of the launch.
func victim(t *testing.T, wl *kernels.Workload, tech sim.Runtime) (*sim.Warp, int) {
	t.Helper()
	d, err := sim.NewDevice(sim.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	d.AttachRuntime(tech)
	l, err := wl.Launch(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Preempt(0, tech); err != nil {
		t.Fatal(err)
	}
	var w *sim.Warp
	err = d.RunUntil(func() bool {
		for _, v := range l.Warps {
			if v.Mode == sim.ModePreemptRoutine && v.Record() != nil {
				w = v
				return true
			}
		}
		return false
	}, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return w, len(l.Warps)
}

// checkStreams checks every decoded table tech hands the device for wl's
// program. It asks through a victim warp whose PC, ID, progress, buffer
// PC and record it sets (the device never steps again): at every PC, at
// no and at full progress (Chimera flushes a warp that has made little),
// the preemption and resume routines and the hook of a warp ID with no
// per-warp state, then the two routines again once that hook gave the
// warp a buffer (CKPT's checkpoint, SM-flushing's entry image). A second
// ask for a routine must return the same memoized table.
func checkStreams(t *testing.T, wl *kernels.Workload, tech preempt.Technique) {
	w, id := victim(t, wl, tech)
	p := wl.Prog
	nv, ns := p.AllocatedVRegs(), p.AllocatedSRegs()
	seen := make(map[*isa.Decoded]bool)
	check := func(what string, code []isa.Decoded) {
		if len(code) > 0 && !seen[&code[0]] {
			seen[&code[0]] = true
			checkStream(t, what, code, nv, ns)
		}
	}
	routines := func(what string) {
		pre := tech.PreemptRoutine(w)
		res, _ := tech.ResumeRoutine(w)
		check(what+" preempt", pre)
		check(what+" resume", res)
		pre2 := tech.PreemptRoutine(w)
		res2, _ := tech.ResumeRoutine(w)
		if &pre2[0] != &pre[0] || &res2[0] != &res[0] {
			t.Fatalf("%s: a second ask built its routines again", what)
		}
	}
	for pc := range p.Len() {
		for _, dyn := range []int64{0, math.MaxInt64} {
			what := fmt.Sprintf("%s/%v pc %d dyn %d", wl.Abbrev, tech.Kind(), pc, dyn)
			w.ID, w.PC, w.DynCount = id, pc, dyn
			w.Ctx().PC = pc
			w.Record().PCAtSignal, w.Record().DynAtSignal = pc, dyn
			id++
			routines(what)
			hook, buf := tech.Hook(w, pc)
			check(what+" hook", hook)
			if buf != nil {
				buf.PC = pc
				routines(what + " after hook")
			}
		}
	}
}

// TestDecodedMatchesInstruction checks every decoded entry against Uses,
// Defs, Op.Info and a splat: each instruction of the twelve kernels, the
// regression programs and generator seeds 0-199 as table entries, and
// every preemption routine, resume routine and hook table each of the
// eight techniques hands the device for the twelve kernels.
func TestDecodedMatchesInstruction(t *testing.T) {
	progs := corpus(t, 200)
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
	wls, err := kernels.All(kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range wls {
		for _, kind := range preempt.ExtendedKinds() {
			tech, err := preempt.New(kind, wl.Prog)
			if err != nil {
				continue // SM-flushing and Chimera need idempotent kernels
			}
			checkStreams(t, wl, tech)
		}
	}
}

// TestTableOfInvalidProgram keeps Validate's error and decodes nothing.
func TestTableOfInvalidProgram(t *testing.T) {
	p := &isa.Program{Name: "bad", NumVRegs: 4, NumSRegs: 16,
		Instrs: []isa.Instruction{{Op: isa.VMov, Dst: isa.V(7), Srcs: [isa.MaxSrcs]isa.Operand{isa.Imm(1)}}}}
	checkTable(t, p)
	if p.Table().Err == nil {
		t.Fatal("invalid program decoded without error")
	}
}
