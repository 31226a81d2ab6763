package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"ctxback/internal/cfg"
	"ctxback/internal/gen"
	"ctxback/internal/isa"
	"ctxback/internal/kernels"
	"ctxback/internal/liveness"
)

// selectPlanReference is the flashback search before score-then-build:
// for every candidate window it filters the OSRB offer to the backups
// still fresh at Q, builds the plan, validates it, and keeps the best
// valid plan by betterPlan. It shares the window analysis with the
// production search but none of its selection logic (candidate order,
// early stop, the dense OSRB freshness test), and survives as the oracle
// TestCompileMatchesReference holds the production search to.
func selectPlanReference(ws *workspace) planSelector {
	// Its own analyzer: firstDef stays at maxPC, so the filtered map is
	// taken as-is, as AnalyzeWindow takes it.
	a := newAnalyzer(ws.prog, ws.info, ws.live, min(ws.maxWindow, ws.prog.Len()))
	return func(p int, feats Feature, osrb osrbTable) *Plan {
		head := ws.graph.FlashbackHead(p)
		if p-head > ws.maxWindow {
			head = p - ws.maxWindow
		}
		blockStart := ws.graph.BlockOf(p).Start
		a.setP(p)
		var best *Plan
		for _, q := range candidateQsReference(ws.cb, head, p) {
			filtered := filterOSRB(ws.prog, blockStart, q, osrbMap(ws.info, osrb))
			a.analyze(q, feats, newOSRBTable(ws.info, filtered))
			plan := a.build()
			if plan == nil || ValidatePlan(ws.prog, ws.live, plan) != nil {
				continue
			}
			if betterPlan(plan, best) {
				best = plan
			}
		}
		return best
	}
}

func betterPlan(a, b *Plan) bool {
	if b == nil {
		return true
	}
	ca, cb := a.EstPreemptCost(), b.EstPreemptCost()
	if ca != cb {
		return ca < cb
	}
	ra, rb := a.EstResumeCost(), b.EstResumeCost()
	if ra != rb {
		return ra < rb
	}
	// Prefer the nearer flashback-point.
	return a.Q > b.Q
}

// candidateQsReference is candidateQs as a fresh slice sorted with
// sort.SliceStable.
func candidateQsReference(cb []int, head, p int) []int {
	var mins []int
	runMin := cb[p]
	for q := p - 1; q >= head; q-- {
		if b := cb[q]; b < runMin {
			runMin = b
			mins = append(mins, q)
		}
	}
	if len(mins) > maxCandidates {
		sort.SliceStable(mins, func(i, j int) bool { return cb[mins[i]] < cb[mins[j]] })
		mins = mins[:maxCandidates]
	}
	return append([]int{p}, mins...)
}

// filterOSRB keeps only backups whose copy (taken at block entry) still
// equals the register's value at Q: no definitions in [blockStart, Q).
func filterOSRB(prog *isa.Program, blockStart, q int, osrb map[isa.Reg]isa.Reg) map[isa.Reg]isa.Reg {
	if len(osrb) == 0 {
		return nil
	}
	out := make(map[isa.Reg]isa.Reg, len(osrb))
	for r, spare := range osrb {
		fresh := true
		for pc := blockStart; pc < q && fresh; pc++ {
			for _, d := range prog.At(pc).Defs(nil) {
				if d == r {
					fresh = false
					break
				}
			}
		}
		if fresh {
			out[r] = spare
		}
	}
	return out
}

// osrbMap turns a dense OSRB table back into the Reg-keyed map.
func osrbMap(info *progInfo, t osrbTable) map[isa.Reg]isa.Reg {
	if t == nil {
		return nil
	}
	m := make(map[isa.Reg]isa.Reg)
	for id, spare := range t {
		if !spare.Valid() {
			continue
		}
		switch {
		case id < info.nv:
			m[isa.V(id)] = spare
		case id < info.nv+info.ns:
			m[isa.S(id-info.nv)] = spare
		default:
			m[isa.Reg{Class: isa.RegSpecial, Index: uint16(id - info.nv - info.ns)}] = spare
		}
	}
	return m
}

// TestCompileMatchesReference: the score-then-build search must emit
// byte-identical compiles to the build-and-validate-every-candidate
// reference on the 12 kernels under the four ablation feature sets and
// on 64 generated programs, one parallel subtest each.
func TestCompileMatchesReference(t *testing.T) {
	type job struct {
		name  string
		prog  *isa.Program
		feats Feature
	}
	var jobs []job
	for _, f := range kernels.Registry() {
		wl, err := f(kernels.TestParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, feats := range []Feature{0, FeatRelaxed, FeatRelaxed | FeatRevert, FeatAll} {
			jobs = append(jobs, job{wl.Abbrev + "/" + feats.String(), wl.Prog, feats})
		}
	}
	for seed := uint64(0); seed < 64; seed++ {
		jobs = append(jobs, job{fmt.Sprintf("gen%d", seed), gen.Generate(seed).Prog, FeatAll})
	}
	for _, j := range jobs {
		t.Run(j.name, func(t *testing.T) {
			t.Parallel()
			g, err := cfg.Build(j.prog)
			if err != nil {
				t.Fatal(err)
			}
			live := liveness.Analyze(g)
			got, err := CompileWith(j.prog, g, live, j.feats, DefaultMaxWindow)
			if err != nil {
				t.Fatal(err)
			}
			ws := newWorkspace(j.prog, g, live, DefaultMaxWindow)
			want, err := compile(ws, j.feats, selectPlanReference(ws))
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if !bytes.Equal(EncodeCompiled(got), EncodeCompiled(want)) {
				for pc := range want.Plans {
					if g, w := got.Plans[pc], want.Plans[pc]; g.String() != w.String() {
						t.Fatalf("pc %d: got %v, reference %v", pc, g, w)
					}
				}
				t.Fatal("compiles differ")
			}
		})
	}
}

// TestSelectPlanSkipsInvalidCandidates: when the best-ranked candidate
// fails validation, the search falls back to the next one. For each PC
// whose best plan reverts an instruction at preemption, the revert form
// the analyzer trusts is corrupted to read a register the window
// overwrites after the reverted instruction, so that plan no longer
// validates, and the search must still return a valid plan.
func TestSelectPlanSkipsInvalidCandidates(t *testing.T) {
	prog := gen.Generate(2).Prog
	g := mustGraph(prog)
	live := liveness.Analyze(g)
	ws := newWorkspace(prog, g, live, DefaultMaxWindow)
	corrupted := 0
	for p := 0; p < prog.Len(); p++ {
		best := ws.selectPlan(p, FeatAll, nil)
		if len(best.PreemptReverts) == 0 {
			continue
		}
		k := best.Q + best.PreemptReverts[0].K
		rf := &ws.info.reverts[k]
		var later isa.Reg // written in the window after k
		for pc := k + 1; pc < p && !later.Valid(); pc++ {
			for _, d := range ws.info.defs[pc] {
				if d != rf.instr.Dst && d.Class != isa.RegSpecial {
					later = d
				}
			}
		}
		if !later.Valid() {
			continue
		}
		saved := rf.instr
		rf.instr.Srcs[1] = isa.R(later)
		ws.a.setP(p)
		ws.a.analyze(best.Q, FeatAll, nil)
		if bad := ws.a.build(); bad == nil || ValidatePlan(prog, live, bad) == nil {
			t.Fatalf("pc %d: the corrupted revert still gives a valid plan", p)
		}
		got := ws.selectPlan(p, FeatAll, nil)
		rf.instr = saved
		if got == nil || ValidatePlan(prog, live, got) != nil {
			t.Fatalf("pc %d: selected %v, which does not validate", p, got)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("no plan reverts at preemption; the test checks nothing")
	}
}

// TestOSRBFreshUntilFirstDefinition: a backup copied at block entry
// holds a register's value at Q exactly when the block first writes the
// register at or after Q.
func TestOSRBFreshUntilFirstDefinition(t *testing.T) {
	prog, live := analyzeSrc(t, `
.kernel fresh
.vregs 4
.sregs 3
  v_laneid v0
  s_mul s1, s1, 3
  v_add v1, v0, s1
  s_mul s1, s1, 5
  v_add v2, v1, s1
  v_gstore v3, v2, 0
  s_endpgm
`)
	const p = 5 // first and second writes of s1 at pcs 1 and 3
	ws := newWorkspace(prog, live.Graph, live, DefaultMaxWindow)
	table := newOSRBTable(ws.info, map[isa.Reg]isa.Reg{isa.S(1): isa.S(3)})
	a := ws.a
	a.setP(p)
	a.enterBlock(0, prog.Len())
	for q, want := range map[int]InitSource{1: InitOSRB, 2: InitUnavailable} {
		a.analyze(q, FeatAll, table)
		if got := a.initSrc[a.id(isa.S(1))]; got != want {
			t.Errorf("window [%d,%d): s1 source %v, want %v", q, p, got, want)
		}
	}
}
