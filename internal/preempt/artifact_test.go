package preempt

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"ctxback/internal/artifact"
	"ctxback/internal/cfg"
	"ctxback/internal/core"
	"ctxback/internal/isa"
	"ctxback/internal/kernels"
	"ctxback/internal/liveness"
	"ctxback/internal/sim"
)

// uniqueKM builds a KM workload at the given iteration count. Every
// call returns a fresh program value; equal counts give content-equal
// programs.
func uniqueKM(t testing.TB, iters int) *kernels.Workload {
	t.Helper()
	p := kernels.TestParams()
	p.ItersPerWarp = iters
	wl, err := kernels.NewKM(p)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// useStore installs st as the process store until the test ends.
func useStore(t testing.TB, st *artifact.Store) *artifact.Store {
	prev := artifact.SetDefault(st)
	t.Cleanup(func() { artifact.SetDefault(prev) })
	return st
}

// diskStore opens a store on dir, as a fresh process would, and
// installs it as the process store until the test ends.
func diskStore(t testing.TB, dir string) *artifact.Store {
	t.Helper()
	st, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return useStore(t, st)
}

// delta runs f and returns the computes and disk hits it cost st.
func delta(st *artifact.Store, f func()) (computes, diskHits int64) {
	c0, d0, _ := st.Stats()
	f()
	c1, d1, _ := st.Stats()
	return c1 - c0, d1 - d0
}

// compiledFor constructs CTXBack through the process store and returns
// its plans.
func compiledFor(t testing.TB, prog *isa.Program, feats core.Feature) *core.Compiled {
	t.Helper()
	tech, err := NewCTXBackFeatures(prog, feats)
	if err != nil {
		t.Fatal(err)
	}
	return tech.(*ctxbackTech).Compiled()
}

func mustAnalysis(t testing.TB, prog *isa.Program) *progAnalysis {
	t.Helper()
	a, err := analysisFor(prog)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestStoredCompiledWarmColdEquivalence: a warm load from a fresh Store
// over the same directory (a simulated new process) must decode to the
// same compiled plans, byte for byte, as the cold compile.
func TestStoredCompiledWarmColdEquivalence(t *testing.T) {
	prog := uniqueKM(t, 37).Prog
	cold, err := core.Compile(prog, core.FeatAll)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// The compile runs against the program's memoized analysis, and the
	// decoder relinks the plans against it; resolve it first so the
	// stats below count the plans alone.
	st1 := diskStore(t, dir)
	mustAnalysis(t, prog)
	var c1 *core.Compiled
	if comp, disk := delta(st1, func() { c1 = compiledFor(t, prog, core.FeatAll) }); comp != 1 || disk != 0 {
		t.Fatalf("cold store stats: %d computes, %d disk hits", comp, disk)
	}
	st2 := diskStore(t, dir)
	mustAnalysis(t, prog)
	var c2 *core.Compiled
	if comp, disk := delta(st2, func() { c2 = compiledFor(t, prog, core.FeatAll) }); comp != 0 || disk != 1 {
		t.Fatalf("warm store stats: %d computes, %d disk hits", comp, disk)
	}
	b0 := core.EncodeCompiled(cold)
	b1 := core.EncodeCompiled(c1)
	b2 := core.EncodeCompiled(c2)
	if !bytes.Equal(b0, b1) || !bytes.Equal(b1, b2) {
		t.Fatal("cold, stored-cold and warm compiled plans differ")
	}
}

// TestStoredCompiledKeyedByFeats: the feature subset is not derivable
// from the program bytes, so each ablation must get its own artifact.
func TestStoredCompiledKeyedByFeats(t *testing.T) {
	prog := uniqueKM(t, 38).Prog
	st := diskStore(t, t.TempDir())
	mustAnalysis(t, prog) // shared by both compiles
	comp, _ := delta(st, func() {
		compiledFor(t, prog, core.FeatAll)
		compiledFor(t, prog, core.FeatOSRB)
	})
	if comp != 2 {
		t.Fatalf("%d computes for two feature subsets, want 2", comp)
	}
}

// TestStoredAnalysisWarmColdEquivalence re-encodes the warm-loaded graph
// and liveness and compares the canonical bytes with the cold pass.
func TestStoredAnalysisWarmColdEquivalence(t *testing.T) {
	prog := uniqueKM(t, 39).Prog
	g, err := cfg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	live := liveness.Analyze(g)
	cold := artifact.NewWriter()
	cfg.EncodeGraph(g, cold)
	liveness.EncodeInfo(live, cold)

	dir := t.TempDir()
	diskStore(t, dir)
	mustAnalysis(t, prog)
	st2 := diskStore(t, dir)
	a := mustAnalysis(t, prog)
	if comp, disk, _ := st2.Stats(); comp != 0 || disk != 1 {
		t.Fatalf("warm store stats: %d computes, %d disk hits", comp, disk)
	}
	warm := artifact.NewWriter()
	cfg.EncodeGraph(a.graph, warm)
	liveness.EncodeInfo(a.live, warm)
	if !bytes.Equal(cold.Data(), warm.Data()) {
		t.Fatal("warm-loaded analysis re-encodes differently from the cold pass")
	}
}

func mustCkpt(t testing.TB, prog *isa.Program, interval int) *ckptStatic {
	t.Helper()
	s, err := ckptStaticFor(prog, interval)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoredCkptStaticKeyedByInterval: the checkpoint interval is an
// input the program bytes do not cover, so it must be keyed explicitly,
// and the warm load must reproduce the cold tables exactly.
func TestStoredCkptStaticKeyedByInterval(t *testing.T) {
	prog := uniqueKM(t, 40).Prog
	useStore(t, artifact.NewMemory())
	coldA := mustCkpt(t, prog, 100)

	dir := t.TempDir()
	st1 := diskStore(t, dir)
	mustAnalysis(t, prog)
	if comp, _ := delta(st1, func() {
		mustCkpt(t, prog, 100)
		mustCkpt(t, prog, 200)
	}); comp != 2 {
		t.Fatalf("%d computes for two intervals, want 2", comp)
	}
	st2 := diskStore(t, dir)
	mustAnalysis(t, prog)
	var warmA *ckptStatic
	if comp, disk := delta(st2, func() { warmA = mustCkpt(t, prog, 100) }); comp != 0 || disk != 1 {
		t.Fatalf("warm store stats: %d computes, %d disk hits", comp, disk)
	}
	if !reflect.DeepEqual(coldA.site, warmA.site) ||
		!reflect.DeepEqual(coldA.siteOf, warmA.siteOf) ||
		!reflect.DeepEqual(coldA.forced, warmA.forced) {
		t.Fatal("warm ckpt tables differ from the cold computation")
	}
}

func mustFlush(t testing.TB, prog *isa.Program) *flushStatic {
	t.Helper()
	s, err := flushStaticFor(prog)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustTargets(t testing.TB, prog *isa.Program) []int {
	t.Helper()
	target, err := csdeferTargets(prog, mustAnalysis(t, prog))
	if err != nil {
		t.Fatal(err)
	}
	return target
}

// TestStoredFlushAndCSDeferWarmEquivalence covers the remaining two
// artifact kinds with the same fresh-store warm/cold comparison.
func TestStoredFlushAndCSDeferWarmEquivalence(t *testing.T) {
	prog := uniqueKM(t, 41).Prog
	useStore(t, artifact.NewMemory())
	coldFlush := mustFlush(t, prog)
	coldTargets := mustTargets(t, prog)

	dir := t.TempDir()
	diskStore(t, dir)
	mustFlush(t, prog)
	mustTargets(t, prog)
	st2 := diskStore(t, dir)
	mustAnalysis(t, prog)
	var warmFlush *flushStatic
	var warmTargets []int
	if comp, disk := delta(st2, func() {
		warmFlush = mustFlush(t, prog)
		warmTargets = mustTargets(t, prog)
	}); comp != 0 || disk != 2 {
		t.Fatalf("warm store stats: %d computes, %d disk hits", comp, disk)
	}
	if warmFlush.flushable != coldFlush.flushable ||
		!reflect.DeepEqual(warmFlush.entryRegs, coldFlush.entryRegs) {
		t.Fatal("warm flush verdict differs from the cold computation")
	}
	if !reflect.DeepEqual(warmTargets, coldTargets) {
		t.Fatal("warm CS-Defer targets differ from the cold computation")
	}
}

// TestNewCTXBackWarmFromStore drives the full technique-construction
// path against a pre-populated directory with content this process has
// never compiled: the construction must be served from disk, not
// recompiled, and behave identically.
func TestNewCTXBackWarmFromStore(t *testing.T) {
	wl1 := uniqueKM(t, 43)
	dir := t.TempDir()
	diskStore(t, dir)
	// The analysis artifact rides along, as it would after any cold run
	// that built a non-CTXBack technique for the program: the compiled
	// plans' decoder relinks against it.
	want := compiledFor(t, wl1.Prog, core.FeatAll)
	mustAnalysis(t, wl1.Prog)

	// Fresh Store, fresh (but content-identical) program: memory misses,
	// the disk hits.
	wl2 := uniqueKM(t, 43)
	if wl2.Prog == wl1.Prog {
		t.Fatal("test needs distinct program pointers")
	}
	st2 := diskStore(t, dir)
	tech, err := NewCTXBackFeatures(wl2.Prog, core.FeatAll)
	if err != nil {
		t.Fatal(err)
	}
	if comp, disk, _ := st2.Stats(); comp != 0 || disk != 2 {
		t.Fatalf("warm construction stats: %d computes, %d disk hits", comp, disk)
	}
	got := tech.(*ctxbackTech).Compiled()
	if !bytes.Equal(core.EncodeCompiled(got), core.EncodeCompiled(want)) {
		t.Fatal("warm-constructed technique decodes different plans")
	}
}

// memoTables is every memoized table of one program, in comparable
// form, plus the program each constructed technique drives.
type memoTables struct {
	compiled  []byte
	ckpt      *ckptStatic
	targets   []int
	flush     *flushStatic
	baseline  isa.RegSet
	combined  []bool
	techProgs []*isa.Program
}

// constructAll builds every kind in ExtendedKinds on prog through the
// process store and collects its tables. SM-flushing may refuse the
// kernel; the refusal must then be the same for every program.
func constructAll(t testing.TB, prog *isa.Program) memoTables {
	t.Helper()
	var m memoTables
	for _, k := range ExtendedKinds() {
		tech, err := New(k, prog)
		if err != nil {
			if k == SMFlush {
				continue
			}
			t.Fatalf("%v: %v", k, err)
		}
		switch tt := tech.(type) {
		case *baselineTech:
			m.baseline = tt.all
			m.techProgs = append(m.techProgs, tt.prog)
		case *liveTech:
			m.techProgs = append(m.techProgs, tt.prog)
		case *ckptTech:
			m.ckpt = tt.static
			m.techProgs = append(m.techProgs, tt.prog)
		case *csdeferTech:
			m.targets = tt.target
			m.techProgs = append(m.techProgs, tt.prog)
		case *ctxbackTech:
			m.compiled = core.EncodeCompiled(tt.compiled)
			m.techProgs = append(m.techProgs, tt.prog)
		case *combinedTech:
			m.combined = tt.useCTX
			m.techProgs = append(m.techProgs, tt.prog)
		case *flushTech:
			m.techProgs = append(m.techProgs, tt.prog)
		case *chimeraTech:
			m.flush = &flushStatic{flushable: tt.flush.flushable, entryRegs: tt.flush.entryRegs}
			m.techProgs = append(m.techProgs, tt.prog)
		default:
			t.Fatalf("%v: unexpected technique type %T", k, tech)
		}
	}
	return m
}

// sameTables reports whether a and b hold equal tables.
func sameTables(a, b memoTables) bool {
	return bytes.Equal(a.compiled, b.compiled) &&
		reflect.DeepEqual(a.ckpt.site, b.ckpt.site) &&
		reflect.DeepEqual(a.ckpt.siteOf, b.ckpt.siteOf) &&
		reflect.DeepEqual(a.ckpt.forced, b.ckpt.forced) &&
		reflect.DeepEqual(a.targets, b.targets) &&
		reflect.DeepEqual(a.flush, b.flush) &&
		reflect.DeepEqual(a.baseline, b.baseline) &&
		reflect.DeepEqual(a.combined, b.combined)
}

// memoKernels are small registry kernels for the one-path memo tests:
// SM-flushing accepts DC and refuses HS (atomics).
var memoKernels = []kernels.Factory{kernels.NewDC, kernels.NewHS}

// freshProg builds f's program at test scale; every call returns a new,
// content-equal program value.
func freshProg(t testing.TB, f kernels.Factory) *isa.Program {
	t.Helper()
	wl, err := f(kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	return wl.Prog
}

// TestMemoSharedByContentEqualPrograms: a program rebuilt as a fresh
// value shares every memoized analysis of its content-equal twin: the
// second program costs zero computes and yields identical tables, while
// every technique still drives its caller's program.
func TestMemoSharedByContentEqualPrograms(t *testing.T) {
	for _, f := range memoKernels {
		p1, p2 := freshProg(t, f), freshProg(t, f)
		if p1 == p2 {
			t.Fatal("test needs distinct program pointers")
		}
		st := useStore(t, artifact.NewMemory())
		first := constructAll(t, p1)
		if comp, _, _ := st.Stats(); comp == 0 {
			t.Fatalf("%s: first program computed nothing", p1.Name)
		}
		var second memoTables
		if comp, _ := delta(st, func() { second = constructAll(t, p2) }); comp != 0 {
			t.Fatalf("%s: content-equal program cost %d computes, want 0", p1.Name, comp)
		}
		if !sameTables(first, second) {
			t.Fatalf("%s: content-equal programs got different tables", p1.Name)
		}
		for i, p := range second.techProgs {
			if p != p2 {
				t.Fatalf("%s: technique %d drives another program than its caller's", p1.Name, i)
			}
		}
	}
}

// TestMemoSingleFlightConcurrent: 8 goroutines construct every kind at
// once on content-equal programs, two goroutines per program value (so
// the program's digest is raced too). Each key is computed once — as
// many computes as one serial construction on a fresh store — and every
// goroutine sees identical tables.
func TestMemoSingleFlightConcurrent(t *testing.T) {
	for _, f := range memoKernels {
		serial := useStore(t, artifact.NewMemory())
		want := constructAll(t, freshProg(t, f))
		keys, _, _ := serial.Stats()

		const workers = 8
		progs := make([]*isa.Program, workers)
		for i := range progs {
			if progs[i] = freshProg(t, f); i%2 == 1 {
				progs[i] = progs[i-1]
			}
		}
		st := useStore(t, artifact.NewMemory())
		got := make([]memoTables, workers)
		var wg sync.WaitGroup
		for i := range progs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = constructAll(t, progs[i])
			}(i)
		}
		wg.Wait()
		if comp, _, _ := st.Stats(); comp != keys {
			t.Fatalf("%s: %d computes for %d keys", progs[0].Name, comp, keys)
		}
		for i := range got {
			if !sameTables(got[i], want) {
				t.Fatalf("%s: goroutine %d got different tables", progs[0].Name, i)
			}
		}
	}
}

// victimWarp launches wl under tech, preempts SM 0 and runs until a
// victim has entered its preemption routine, so it has a context buffer
// and a record. It returns the warp and the launch's warp count.
func victimWarp(t testing.TB, wl *kernels.Workload, tech sim.Runtime) (*sim.Warp, int) {
	t.Helper()
	d := mustDevice(sim.TestConfig())
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

// routineTables asks every kind in ExtendedKinds, constructed on w's
// program, for its tables through w: at every PC, the preemption and
// resume routines and the hook of a warp ID with no per-warp state yet,
// then the routines again once that hook gave the warp a buffer. It
// sets w's PC, ID, buffer PC and record to ask (w's device never steps
// again) and returns the tables in asking order.
func routineTables(w *sim.Warp, id int) ([][]isa.Decoded, error) {
	var out [][]isa.Decoded
	for _, k := range ExtendedKinds() {
		tech, err := New(k, w.Prog)
		if err != nil {
			if k == SMFlush {
				continue
			}
			return nil, err
		}
		routines := func() {
			res, _ := tech.ResumeRoutine(w)
			out = append(out, tech.PreemptRoutine(w), res)
		}
		for pc := range w.Prog.Len() {
			w.ID, w.PC = id, pc
			w.Ctx().PC, w.Record().PCAtSignal = pc, pc
			id++
			routines()
			hook, buf := tech.Hook(w, pc)
			out = append(out, hook)
			if buf != nil {
				buf.PC = pc
				routines()
			}
		}
	}
	return out, nil
}

// TestMemoRoutineTablesShared: 8 goroutines, two per program value of
// content-equal programs, ask every technique for every routine and hook
// table at once, each through a victim warp of its own device. The
// memos start cold, so the first asks race to fill them; every
// (PC, variant) must come back as one table shared by all eight.
func TestMemoRoutineTablesShared(t *testing.T) {
	for _, f := range memoKernels {
		const workers = 8
		warps, ids := make([]*sim.Warp, workers), make([]int, workers)
		var wl *kernels.Workload
		for i := range warps {
			if i%2 == 0 {
				var err error
				if wl, err = f(kernels.TestParams()); err != nil {
					t.Fatal(err)
				}
			}
			tech, err := NewBaseline(wl.Prog)
			if err != nil {
				t.Fatal(err)
			}
			warps[i], ids[i] = victimWarp(t, wl, tech)
		}
		useStore(t, artifact.NewMemory())
		got := make([][][]isa.Decoded, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for i := range warps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = routineTables(warps[i], ids[i])
			}(i)
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if len(got[i]) != len(got[0]) {
				t.Fatalf("%s: goroutine %d got %d tables, goroutine 0 %d", warps[0].Prog.Name, i, len(got[i]), len(got[0]))
			}
			for k, code := range got[i] {
				if len(code) != len(got[0][k]) || len(code) > 0 && &code[0] != &got[0][k][0] {
					t.Fatalf("%s: goroutine %d table %d is not goroutine 0's", warps[0].Prog.Name, i, k)
				}
			}
		}
	}
}
