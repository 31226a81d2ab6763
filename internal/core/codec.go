package core

import (
	"fmt"
	"sort"

	"ctxback/internal/artifact"
	"ctxback/internal/cfg"
	"ctxback/internal/isa"
	"ctxback/internal/liveness"
)

// Binary codec for Compiled, used by the artifact store. It lives here
// because Plan carries the unexported version type (ResumeRevert.SlotVer)
// that no other package can reconstruct. Maps are emitted in sorted key
// order and instruction slices through isa's canonical routine encoding,
// so encode∘decode∘encode is byte-identical.
//
// Prog/Graph/Live are NOT part of the payload: the program is the
// artifact's key, and the analyses are relinked by the caller (they are
// either their own artifact or recomputed in microseconds).

// Minimum encoded sizes, which bound decoded lengths (artifact.Reader.Len):
// a routine is a byte-length prefix and an instruction count, one
// instruction adds a word, and a plan is at least ten Ints (fields and
// empty collections' lengths).
const (
	routineBytes = 4 + 4
	instrBytes   = routineBytes + isa.InstrWordBytes
	planBytes    = 10 * 8
	regBytes     = liveness.RegBytes
)

func encodeRoutine(w *artifact.Writer, instrs []isa.Instruction) {
	w.Bytes(isa.EncodeRoutine(instrs))
}

func decodeRoutine(r *artifact.Reader) []isa.Instruction {
	b := r.Bytes()
	if r.Err() != nil {
		return nil
	}
	instrs, err := isa.DecodeRoutine(b)
	if err != nil {
		r.Fail(err)
		return nil
	}
	return instrs
}

// decodeInstr reads a single instruction encoded as a 1-routine.
func decodeInstr(r *artifact.Reader) isa.Instruction {
	in := decodeRoutine(r)
	if len(in) != 1 {
		r.Fail(fmt.Errorf("core: decode: %d instructions where 1 expected", len(in)))
		return isa.Instruction{}
	}
	return in[0]
}

func encodePlan(w *artifact.Writer, p *Plan) {
	w.Int(p.P)
	w.Int(p.Q)
	w.Int(len(p.Status))
	for _, s := range p.Status {
		w.U8(uint8(s))
	}
	var initKeys isa.RegSet
	for reg := range p.InitRegs {
		initKeys.Add(reg)
	}
	sortedInit := initKeys.Sorted()
	w.Int(len(sortedInit))
	for _, reg := range sortedInit {
		liveness.EncodeReg(w, reg)
		w.U8(uint8(p.InitRegs[reg]))
	}
	reloadIdx := make([]int, 0, len(p.ReloadRegs))
	for i := range p.ReloadRegs {
		reloadIdx = append(reloadIdx, i)
	}
	sort.Ints(reloadIdx)
	w.Int(len(reloadIdx))
	for _, i := range reloadIdx {
		w.Int(i)
		liveness.EncodeRegSet(p.ReloadRegs[i], w)
	}
	w.Int(len(p.PreemptReverts))
	for _, rv := range p.PreemptReverts {
		w.Int(rv.K)
		encodeRoutine(w, []isa.Instruction{rv.Instr})
	}
	w.Int(len(p.ResumeReverts))
	for _, rv := range p.ResumeReverts {
		w.Int(rv.Pos)
		encodeRoutine(w, []isa.Instruction{rv.Instr})
		liveness.EncodeReg(w, rv.SlotReg)
		w.I64(int64(rv.SlotVer))
	}
	encodeRegMap(w, p.OSRB)
	w.Int(p.ContextBytes)
	w.Int(p.ReExecCount)
}

func decodePlan(r *artifact.Reader) *Plan {
	p := &Plan{}
	p.P = r.Int()
	p.Q = r.Int()
	ns := r.Len(1)
	p.Status = make([]Status, ns)
	for i := range p.Status {
		p.Status[i] = Status(r.U8())
	}
	ni := r.Len(regBytes + 1)
	p.InitRegs = make(map[isa.Reg]InitSource, ni)
	for i := 0; i < ni; i++ {
		reg := liveness.DecodeReg(r)
		p.InitRegs[reg] = InitSource(r.U8())
	}
	nr := r.Len(8 + liveness.RegSetBytes)
	p.ReloadRegs = make(map[int]isa.RegSet, nr)
	for i := 0; i < nr; i++ {
		idx := r.Int()
		p.ReloadRegs[idx] = liveness.DecodeRegSet(r)
	}
	np := r.Len(8 + instrBytes)
	p.PreemptReverts = make([]PreemptRevert, np)
	for i := range p.PreemptReverts {
		p.PreemptReverts[i].K = r.Int()
		p.PreemptReverts[i].Instr = decodeInstr(r)
	}
	nv := r.Len(8 + instrBytes + regBytes + 8)
	p.ResumeReverts = make([]ResumeRevert, nv)
	for i := range p.ResumeReverts {
		p.ResumeReverts[i].Pos = r.Int()
		p.ResumeReverts[i].Instr = decodeInstr(r)
		p.ResumeReverts[i].SlotReg = liveness.DecodeReg(r)
		p.ResumeReverts[i].SlotVer = version(r.I64())
	}
	p.OSRB = decodeRegMap(r)
	p.ContextBytes = r.Int()
	p.ReExecCount = r.Int()
	return p
}

func encodeRegMap(w *artifact.Writer, m map[isa.Reg]isa.Reg) {
	var keys isa.RegSet
	for reg := range m {
		keys.Add(reg)
	}
	sorted := keys.Sorted()
	w.Int(len(sorted))
	for _, reg := range sorted {
		liveness.EncodeReg(w, reg)
		liveness.EncodeReg(w, m[reg])
	}
}

func decodeRegMap(r *artifact.Reader) map[isa.Reg]isa.Reg {
	n := r.Len(2 * regBytes)
	m := make(map[isa.Reg]isa.Reg, n)
	for i := 0; i < n; i++ {
		k := liveness.DecodeReg(r)
		m[k] = liveness.DecodeReg(r)
	}
	return m
}

// EncodeCompiled serializes the pass output (everything except the
// Prog/Graph/Live links).
func EncodeCompiled(c *Compiled) []byte {
	w := artifact.NewWriter()
	w.U8(uint8(c.Feats))
	w.Int(c.MaxWindow)
	w.Int(len(c.Plans))
	for _, p := range c.Plans {
		encodePlan(w, p)
	}
	w.Int(len(c.PreemptRoutines))
	for _, rt := range c.PreemptRoutines {
		encodeRoutine(w, rt)
	}
	w.Int(len(c.ResumeRoutines))
	for _, rt := range c.ResumeRoutines {
		encodeRoutine(w, rt)
	}
	encodeRegMap(w, c.OSRB)
	pcs := make([]int, 0, len(c.BackupAt))
	for pc := range c.BackupAt {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	w.Int(len(pcs))
	for _, pc := range pcs {
		w.Int(pc)
		encodeRoutine(w, c.BackupAt[pc])
	}
	w.Int(c.UniqueRoutines)
	w.Int(c.SharedRoutineBytes)
	w.Int(c.UnsharedRoutineBytes)
	return w.Data()
}

// DecodeCompiled deserializes a Compiled for prog, relinking the
// analysis results. The per-PC tables must match the program's length —
// a mismatch means the payload was produced for a different program and
// is rejected.
func DecodeCompiled(prog *isa.Program, g *cfg.Graph, live *liveness.Info, data []byte) (*Compiled, error) {
	r := artifact.NewReader(data)
	c := &Compiled{Prog: prog, Graph: g, Live: live}
	c.Feats = Feature(r.U8())
	c.MaxWindow = r.Int()
	np := r.Len(planBytes)
	c.Plans = make([]*Plan, np)
	for i := range c.Plans {
		c.Plans[i] = decodePlan(r)
	}
	n1 := r.Len(routineBytes)
	c.PreemptRoutines = make([][]isa.Instruction, n1)
	for i := range c.PreemptRoutines {
		c.PreemptRoutines[i] = decodeRoutine(r)
	}
	n2 := r.Len(routineBytes)
	c.ResumeRoutines = make([][]isa.Instruction, n2)
	for i := range c.ResumeRoutines {
		c.ResumeRoutines[i] = decodeRoutine(r)
	}
	c.OSRB = decodeRegMap(r)
	nb := r.Len(8 + routineBytes)
	c.BackupAt = make(map[int][]isa.Instruction, nb)
	for i := 0; i < nb; i++ {
		pc := r.Int()
		c.BackupAt[pc] = decodeRoutine(r)
	}
	c.UniqueRoutines = r.Int()
	c.SharedRoutineBytes = r.Int()
	c.UnsharedRoutineBytes = r.Int()
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("core: decode compiled: %w", err)
	}
	n := prog.Len()
	if len(c.Plans) != n || len(c.PreemptRoutines) != n || len(c.ResumeRoutines) != n {
		return nil, fmt.Errorf("core: decode compiled: per-PC tables sized %d/%d/%d for a %d-instruction program",
			len(c.Plans), len(c.PreemptRoutines), len(c.ResumeRoutines), n)
	}
	for pc := range c.BackupAt {
		if pc < 0 || pc >= n {
			return nil, fmt.Errorf("core: decode compiled: backup site %d out of range", pc)
		}
	}
	return c, nil
}
