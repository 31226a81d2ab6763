package core

import (
	"fmt"
	"slices"
	"sort"

	"ctxback/internal/cfg"
	"ctxback/internal/isa"
	"ctxback/internal/liveness"
)

// DefaultMaxWindow bounds how far back the flashback-point search looks.
// Candidate flashback-points are pruned to the local minima of the
// live-in context size (the paper observes selected flashback-points are
// exactly such local minima, §IV-A), so a window covering whole unrolled
// loop bodies stays affordable.
const DefaultMaxWindow = 512

// Compiled is the output of the CTXBack pass for one kernel: a selected
// flashback plan and dedicated routines per instruction, plus the global
// OSRB backup assignment and its instrumentation points.
type Compiled struct {
	Prog  *isa.Program
	Graph *cfg.Graph
	Live  *liveness.Info
	Feats Feature

	// Plans[pc] is the chosen plan for a signal arriving at pc.
	Plans []*Plan
	// PreemptRoutines[pc] / ResumeRoutines[pc] are the register parts of
	// the dedicated routines (technique layer appends LDS/PC handling).
	PreemptRoutines [][]isa.Instruction
	ResumeRoutines  [][]isa.Instruction

	// OSRB is the global backup assignment (backed-up reg -> spare reg).
	OSRB map[isa.Reg]isa.Reg
	// BackupAt maps a block-entry PC to the backup copies executed there
	// during normal execution.
	BackupAt map[int][]isa.Instruction

	// UniqueRoutines counts distinct preemption routine bodies after
	// sharing (paper §IV-A).
	UniqueRoutines int
	// SharedRoutineBytes is the device-memory footprint of the shared
	// preemption routines actually transferred with the kernel;
	// UnsharedRoutineBytes is what per-instruction routines would cost
	// without sharing (paper §IV-A's transfer/storage saving).
	SharedRoutineBytes   int
	UnsharedRoutineBytes int

	MaxWindow int
}

// Compile runs the full CTXBack pass on prog.
func Compile(prog *isa.Program, feats Feature) (*Compiled, error) {
	return CompileWindow(prog, feats, DefaultMaxWindow)
}

// CompileWindow is Compile with an explicit flashback search bound.
func CompileWindow(prog *isa.Program, feats Feature, maxWindow int) (*Compiled, error) {
	graph, err := cfg.Build(prog)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return CompileWith(prog, graph, liveness.Analyze(graph), feats, maxWindow)
}

// CompileWith runs the pass against an existing CFG and liveness
// analysis of prog (or of a content-equal program: plan PCs are
// positional), so a caller that already holds them, such as the
// technique memo, does not build them twice.
func CompileWith(prog *isa.Program, graph *cfg.Graph, live *liveness.Info, feats Feature, maxWindow int) (*Compiled, error) {
	ws := newWorkspace(prog, graph, live, maxWindow)
	return compile(ws, feats, ws.selectPlan)
}

// planSelector picks the plan for a signal at p under feats, offering
// the OSRB backups in osrb (nil: none). Production compiles use
// workspace.selectPlan; tests plug in a reference selector.
type planSelector func(p int, feats Feature, osrb osrbTable) *Plan

func compile(ws *workspace, feats Feature, sel planSelector) (*Compiled, error) {
	prog, graph := ws.prog, ws.graph
	c := &Compiled{
		Prog: prog, Graph: graph, Live: ws.live, Feats: feats,
		OSRB:      make(map[isa.Reg]isa.Reg),
		BackupAt:  make(map[int][]isa.Instruction),
		MaxWindow: ws.maxWindow,
	}
	if feats&FeatOSRB != 0 {
		if m := chooseOSRB(ws, feats, sel); m != nil {
			c.OSRB = m
		}
	}
	osrb := newOSRBTable(ws.info, c.OSRB)

	n := prog.Len()
	c.Plans = make([]*Plan, n)
	c.PreemptRoutines = make([][]isa.Instruction, n)
	c.ResumeRoutines = make([][]isa.Instruction, n)
	// Routine sharing (paper §IV-A): routines are equal when their
	// assembler text is. Each distinct body is stored once; later equal
	// routines share the first one's slice (finishPreempt copies before
	// appending, so sharing is safe).
	shared := make(map[string][]isa.Instruction)
	var key []byte
	for pc := 0; pc < n; pc++ {
		plan := sel(pc, feats, osrb)
		if plan == nil {
			return nil, fmt.Errorf("core: no plan for pc %d (even the empty window failed)", pc)
		}
		c.Plans[pc] = plan
		pre, res := GenRoutines(prog, plan)
		key = routineKey(key[:0], pre)
		if first, seen := shared[string(key)]; !seen {
			shared[string(key)] = pre
			c.SharedRoutineBytes += isa.RoutineBytes(pre)
		} else if slices.Equal(first, pre) {
			pre = first
		}
		c.PreemptRoutines[pc] = pre
		c.ResumeRoutines[pc] = res
		c.UnsharedRoutineBytes += isa.RoutineBytes(pre)
	}
	c.UniqueRoutines = len(shared)

	// OSRB instrumentation: back up at the entry of every block whose
	// selected plans rely on a backup.
	needed := make(map[int]isa.RegSet) // blockStart -> regs
	for pc, plan := range c.Plans {
		for reg, src := range plan.InitRegs {
			if src != InitOSRB {
				continue
			}
			start := graph.BlockOf(pc).Start
			regs := needed[start]
			regs.Add(reg)
			needed[start] = regs
		}
	}
	for start, regs := range needed {
		for _, r := range regs.Sorted() {
			c.BackupAt[start] = append(c.BackupAt[start], backupInstr(r, c.OSRB[r]))
		}
	}
	return c, nil
}

// routineKey appends instrs' assembler text, one line per instruction,
// to b: the sharing key, rendered without fmt into a reused buffer.
func routineKey(b []byte, instrs []isa.Instruction) []byte {
	for i := range instrs {
		b = instrs[i].AppendText(b)
		b = append(b, '\n')
	}
	return b
}

// estPreemptCost ranks plans by estimated preemption latency: the
// context traffic dominates; revert and save instructions add issue
// cycles.
func estPreemptCost(ctxBytes, preemptReverts int) int64 {
	return int64(ctxBytes)*8 + int64(preemptReverts)*4
}

// estResumeCost ranks plans by estimated resume time.
func estResumeCost(ctxBytes, reExec int) int64 {
	return int64(ctxBytes)*8 + int64(reExec)*8
}

// EstPreemptCost ranks plans by estimated preemption latency.
func (p *Plan) EstPreemptCost() int64 {
	return estPreemptCost(p.ContextBytes, len(p.PreemptReverts))
}

// EstResumeCost ranks plans by estimated resume time.
func (p *Plan) EstResumeCost() int64 { return estResumeCost(p.ContextBytes, p.ReExecCount) }

// planRank is the selection order of candidate plans: lower estimated
// preemption cost, then lower estimated resume cost, then the nearer
// flashback-point. Candidates for one P have distinct Qs, so the order
// is strict and total.
type planRank struct {
	pre, res int64
	q        int
}

func (a planRank) better(b planRank) bool {
	if a.pre != b.pre {
		return a.pre < b.pre
	}
	if a.res != b.res {
		return a.res < b.res
	}
	// Prefer the nearer flashback-point.
	return a.q > b.q
}

// workspace is the state of one compile: the program's decode tables,
// the per-PC live-in context sizes, and one analyzer and validator whose
// buffers every window reuses. It lives for one CompileWith call and
// is not shared between goroutines.
type workspace struct {
	prog      *isa.Program
	graph     *cfg.Graph
	live      *liveness.Info
	info      *progInfo
	maxWindow int
	// cb[pc] is pc's live-in context size, computed once: the candidate
	// search reads it O(window) times per selectPlan call.
	cb    []int
	a     *analyzer
	v     *validator
	block int // start of the block a.firstDef describes (-1: none)
	qs    []int
	ranks []planRank
}

func newWorkspace(prog *isa.Program, graph *cfg.Graph, live *liveness.Info, maxWindow int) *workspace {
	info := newProgInfo(prog)
	maxN := min(maxWindow, prog.Len())
	ws := &workspace{
		prog: prog, graph: graph, live: live, info: info, maxWindow: maxWindow,
		cb:    make([]int, prog.Len()),
		a:     newAnalyzer(prog, info, live, max(maxN, 0)),
		v:     newValidator(prog, info, live),
		block: -1,
	}
	for pc := range ws.cb {
		ws.cb[pc] = live.ContextBytes(pc)
	}
	return ws
}

// selectPlan picks the best valid plan for a signal at p: score every
// candidate window from the analyzer's dense state, then build and
// validate candidates best-first and keep the first that validates.
// Ranking is a strict total order, so this is the plan a search that
// built and validated every candidate would keep; a candidate ranked
// below the first valid one could never win, so it is never built.
func (ws *workspace) selectPlan(p int, feats Feature, osrb osrbTable) *Plan {
	a := ws.a
	a.setP(p)
	if b := ws.graph.BlockOf(p); b.Start != ws.block {
		ws.block = b.Start
		a.enterBlock(b.Start, b.End)
	}
	ws.ranks = ws.ranks[:0]
	ws.qs = candidateQs(ws.qs[:0], ws.cb, ws.head(p), p)
	for _, q := range ws.qs {
		a.analyze(q, feats, osrb)
		if r, ok := a.score(); ok {
			ws.ranks = append(ws.ranks, r)
		}
	}
	ranks := ws.ranks
	for i := 1; i < len(ranks); i++ {
		for j := i; j > 0 && ranks[j].better(ranks[j-1]); j-- {
			ranks[j], ranks[j-1] = ranks[j-1], ranks[j]
		}
	}
	for _, r := range ranks {
		if a.q != r.q {
			a.analyze(r.q, feats, osrb)
		}
		if plan := a.build(); plan != nil && ws.v.validate(plan) == nil {
			return plan
		}
	}
	return nil
}

// head returns the earliest candidate flashback-point for p.
func (ws *workspace) head(p int) int {
	head := ws.graph.FlashbackHead(p)
	if p-head > ws.maxWindow {
		head = p - ws.maxWindow
	}
	return head
}

// maxCandidates caps how many flashback-point candidates are analyzed
// per instruction (the smallest-context ones win anyway).
const maxCandidates = 8

// candidateQs appends the flashback-point candidates for a signal at p
// to qs: p itself (the LIVE fallback), plus local minima of the live-in
// context size in [head, p). Restricting the search to local minima is
// both the paper's observation about which points win (§IV-A) and what
// keeps whole-block windows affordable. Plateaus contribute only their
// point nearest to p, and only the maxCandidates smallest minima are
// kept.
func candidateQs(qs, cb []int, head, p int) []int {
	// Running minimum from p backwards: a further flashback-point is
	// only worth the extra re-execution when its context is strictly
	// smaller than every nearer point's.
	qs = append(qs, p)
	runMin := cb[p]
	for q := p - 1; q >= head; q-- {
		if b := cb[q]; b < runMin {
			runMin = b
			qs = append(qs, q)
		}
	}
	// Keep the smallest-context candidates (the cost model is dominated
	// by context bytes, so larger minima rarely win); ties prefer the
	// nearer point, which the scan already orders first, and the
	// insertion sort is stable.
	if mins := qs[1:]; len(mins) > maxCandidates {
		for i := 1; i < len(mins); i++ {
			for j := i; j > 0 && cb[mins[j]] < cb[mins[j-1]]; j-- {
				mins[j], mins[j-1] = mins[j-1], mins[j]
			}
		}
		qs = qs[:1+maxCandidates]
	}
	return qs
}

// chooseOSRB runs the selection once with every scalar and special
// register hypothetically backed up, observes which backups the winning
// plans would actually use, and assigns the available spare registers
// (allocation-alignment padding, paper §III-D) to the most valuable.
func chooseOSRB(ws *workspace, feats Feature, sel planSelector) map[isa.Reg]isa.Reg {
	prog := ws.prog
	spares := spareRegs(prog)
	if len(spares) == 0 {
		return nil
	}
	// Hypothetical: every scalar/special reg backed up (spare identity is
	// irrelevant for the trial; use a placeholder).
	trial := make(map[isa.Reg]isa.Reg)
	for i := 0; i < prog.NumSRegs; i++ {
		trial[isa.S(i)] = isa.S(0)
	}
	trial[isa.Exec] = isa.S(0)
	trial[isa.VCC] = isa.S(0)
	trial[isa.SCC] = isa.S(0)
	trialTable := newOSRBTable(ws.info, trial)

	benefit := make(map[isa.Reg]int64)
	for pc := 0; pc < prog.Len(); pc++ {
		base := sel(pc, feats&^FeatOSRB, nil)
		with := sel(pc, feats, trialTable)
		if base == nil || with == nil {
			continue
		}
		gain := base.EstPreemptCost() - with.EstPreemptCost()
		if gain <= 0 {
			continue
		}
		for reg, src := range with.InitRegs {
			if src == InitOSRB {
				benefit[reg] += gain
			}
		}
	}
	if len(benefit) == 0 {
		return nil
	}
	var regs []isa.Reg
	for r := range benefit {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool {
		if benefit[regs[i]] != benefit[regs[j]] {
			return benefit[regs[i]] > benefit[regs[j]]
		}
		return regLess(regs[i], regs[j])
	})
	out := make(map[isa.Reg]isa.Reg)
	for i, r := range regs {
		if i >= len(spares) {
			break
		}
		out[r] = spares[i]
	}
	return out
}

func regLess(a, b isa.Reg) bool {
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	return a.Index < b.Index
}

// spareRegs lists the scalar registers reserved by allocation alignment
// but never used by the kernel — guaranteed-free backup storage.
func spareRegs(prog *isa.Program) []isa.Reg {
	var out []isa.Reg
	for i := prog.NumSRegs; i < prog.AllocatedSRegs(); i++ {
		out = append(out, isa.S(i))
	}
	return out
}
