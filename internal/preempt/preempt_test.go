package preempt

import (
	"fmt"
	"testing"

	"ctxback/internal/isa"
	"ctxback/internal/kernels"
	"ctxback/internal/sim"
)

// goldenRun executes a workload to completion without preemption and
// returns the final device memory.
func goldenRun(t *testing.T, wl *kernels.Workload) (*sim.Device, int64) {
	t.Helper()
	d := mustDevice(sim.TestConfig())
	if _, err := wl.Launch(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	return d, d.Now()
}

// preemptedRun executes the workload, preempts SM 0 at signalCycle with
// the technique, resumes as soon as the contexts are saved, and runs to
// completion. Returns the episode for measurements.
func preemptedRun(t *testing.T, wl *kernels.Workload, kind Kind, signalCycle int64) (*sim.Device, *sim.Episode) {
	t.Helper()
	tech, err := New(kind, wl.Prog)
	if err != nil {
		t.Fatalf("%v: %v", kind, err)
	}
	return runtimeRun(t, wl, tech, signalCycle)
}

// runtimeRun is preemptedRun under any runtime.
func runtimeRun(t *testing.T, wl *kernels.Workload, tech sim.Runtime, signalCycle int64) (*sim.Device, *sim.Episode) {
	t.Helper()
	kind := tech.Name()
	d := mustDevice(sim.TestConfig())
	d.AttachRuntime(tech)
	launch, err := wl.Launch(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunUntil(func() bool { return d.Now() >= signalCycle }, 500_000_000); err != nil {
		t.Fatal(err)
	}
	if launch.Done() {
		return d, nil // kernel finished before the signal; nothing to test
	}
	ep, err := d.Preempt(0, tech)
	if err != nil {
		// The SM may have drained already.
		if err := d.Run(500_000_000); err != nil {
			t.Fatal(err)
		}
		return d, nil
	}
	if err := d.RunUntil(ep.Saved, 500_000_000); err != nil {
		t.Fatalf("%v: during save: %v", kind, err)
	}
	if !ep.Saved() {
		t.Fatalf("%v: contexts never saved", kind)
	}
	if err := d.Resume(ep); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(500_000_000); err != nil {
		t.Fatalf("%v: after resume: %v", kind, err)
	}
	if !ep.Finished() {
		t.Fatalf("%v: episode never finished", kind)
	}
	return d, ep
}

// TestGoldenEquivalenceAllKernelsAllTechniques is the repository's
// central correctness property: preempting any kernel with any technique
// at any point and resuming must reproduce the uninterrupted run's
// output exactly. Register files are poisoned at resume, so any value
// the technique fails to restore surfaces as a mismatch.
func TestGoldenEquivalenceAllKernelsAllTechniques(t *testing.T) {
	all, err := kernels.All(kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	fractions := []float64{0.15, 0.45, 0.8}
	if testing.Short() {
		fractions = []float64{0.45}
	}
	for _, wl := range all {
		wl := wl
		t.Run(wl.Abbrev, func(t *testing.T) {
			golden, total := goldenRun(t, wl)
			for _, kind := range Kinds() {
				for _, f := range fractions {
					signal := int64(f * float64(total))
					name := fmt.Sprintf("%v@%.0f%%", kind, f*100)
					d, ep := preemptedRun(t, wl, kind, signal)
					if err := wl.Verify(d); err != nil {
						t.Errorf("%s: output wrong: %v", name, err)
						continue
					}
					if i := golden.Mem.Diff(d.Mem); i >= 0 {
						t.Errorf("%s: mem[%d] = %#x, golden %#x", name, i, d.Mem.Load(i), golden.Mem.Load(i))
					}
					if ep != nil && ep.PreemptLatencyCycles() < 0 {
						t.Errorf("%s: negative preemption latency", name)
					}
				}
			}
		})
	}
}

func TestTechniqueConstruction(t *testing.T) {
	wl, err := kernels.ByAbbrev("VA", kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range Kinds() {
		tech, err := New(kind, wl.Prog)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if tech.Kind() != kind {
			t.Errorf("Kind() = %v, want %v", tech.Kind(), kind)
		}
		if tech.Name() == "" {
			t.Errorf("%v: empty name", kind)
		}
		for pc := 0; pc < wl.Prog.Len(); pc++ {
			if b := tech.StaticContextBytes(pc); b < 0 {
				t.Errorf("%v pc %d: negative context", kind, pc)
			}
			if c := tech.EstPreemptCycles(pc); c < 0 {
				t.Errorf("%v pc %d: negative estimate", kind, pc)
			}
		}
	}
}

func TestStaticContextOrdering(t *testing.T) {
	// Fundamental shape of Fig 7: for every kernel and every pc,
	// LIVE <= BASELINE, CTXBack <= LIVE, and CKPT (block minimum) <= any
	// flashback-based context in that block.
	all, err := kernels.All(kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range all {
		base, _ := New(Baseline, wl.Prog)
		live, _ := New(Live, wl.Prog)
		ctx, _ := New(CTXBack, wl.Prog)
		ckpt, _ := New(Ckpt, wl.Prog)
		for pc := 0; pc < wl.Prog.Len(); pc++ {
			b, l, c, k := base.StaticContextBytes(pc), live.StaticContextBytes(pc),
				ctx.StaticContextBytes(pc), ckpt.StaticContextBytes(pc)
			if l > b {
				t.Errorf("%s pc %d: LIVE %d > BASELINE %d", wl.Abbrev, pc, l, b)
			}
			// CTXBack may exceed LIVE by a few bytes at PCs where its
			// cost model trades an 8-byte EXEC save for a 4-byte OSRB
			// spare plus slots; never by more than one special register.
			if c > l+16 {
				t.Errorf("%s pc %d: CTXBack %d > LIVE %d + 16", wl.Abbrev, pc, c, l)
			}
			// CKPT's snapshot is the block minimum plus the always-saved
			// specials (EXEC+VCC+SCC, up to 20 bytes).
			if k > l+24 {
				t.Errorf("%s pc %d: CKPT block-min %d > LIVE-at-pc %d + 24", wl.Abbrev, pc, k, l)
			}
		}
	}
}

func TestCTXBackReducesAverageContext(t *testing.T) {
	// The headline claim at static level: averaged over instructions,
	// CTXBack's context is well below BASELINE's.
	all, err := kernels.All(kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	var sumBase, sumCtx float64
	for _, wl := range all {
		base, _ := New(Baseline, wl.Prog)
		ctx, _ := New(CTXBack, wl.Prog)
		for pc := 0; pc < wl.Prog.Len(); pc++ {
			sumBase += float64(base.StaticContextBytes(pc))
			sumCtx += float64(ctx.StaticContextBytes(pc))
		}
	}
	reduction := 1 - sumCtx/sumBase
	if reduction < 0.30 {
		t.Errorf("average static context reduction = %.1f%%, expected well above 30%%", reduction*100)
	}
	t.Logf("static context reduction vs BASELINE: %.1f%%", reduction*100)
}

func TestCSDeferTargetsAreMinima(t *testing.T) {
	wl, err := kernels.ByAbbrev("VA", kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	tech, err := NewCSDefer(wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	csd := tech.(*csdeferTech)
	for pc := 0; pc < wl.Prog.Len(); pc++ {
		d := csd.target[pc]
		if d < pc {
			t.Errorf("pc %d: defer target %d is behind", pc, d)
		}
		if csd.live.ContextBytes(d) > csd.live.ContextBytes(pc) {
			t.Errorf("pc %d: deferral to %d increases context", pc, d)
		}
	}
}

func TestCKPTTakesPeriodicSnapshots(t *testing.T) {
	wl, err := kernels.ByAbbrev("VA", kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	tech, err := New(Ckpt, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	d := mustDevice(sim.TestConfig())
	d.AttachRuntime(tech)
	if _, err := wl.Launch(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	if err := wl.Verify(d); err != nil {
		t.Fatalf("checkpoint instrumentation broke the kernel: %v", err)
	}
	if d.Stats.HookInstrs == 0 {
		t.Error("CKPT took no snapshots")
	}
}

func TestOSRBOverheadIsTiny(t *testing.T) {
	// CTXBack's only runtime cost is the OSRB copies: compare cycles with
	// and without the runtime attached — must be well under 5% even on
	// the small test configuration.
	wl, err := kernels.ByAbbrev("DOT", kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	run := func(attach bool) int64 {
		d := mustDevice(sim.TestConfig())
		if attach {
			tech, err := New(CTXBack, wl.Prog)
			if err != nil {
				t.Fatal(err)
			}
			d.AttachRuntime(tech)
		}
		if _, err := wl.Launch(d); err != nil {
			t.Fatal(err)
		}
		if err := d.Run(500_000_000); err != nil {
			t.Fatal(err)
		}
		if err := wl.Verify(d); err != nil {
			t.Fatal(err)
		}
		return d.Now()
	}
	clean := run(false)
	with := run(true)
	overhead := float64(with-clean) / float64(clean)
	if overhead > 0.05 {
		t.Errorf("OSRB runtime overhead = %.2f%%, want < 5%%", overhead*100)
	}
	t.Logf("OSRB overhead: %.3f%% (%d vs %d cycles)", overhead*100, with, clean)
}

func TestCTXBackRoutinesReferenceValidRegs(t *testing.T) {
	all, err := kernels.All(kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range all {
		tech, err := NewCTXBack(wl.Prog)
		if err != nil {
			t.Fatalf("%s: %v", wl.Abbrev, err)
		}
		c := tech.(*ctxbackTech).Compiled()
		for pc := range c.PreemptRoutines {
			for _, ins := range c.PreemptRoutines[pc] {
				checkRegBounds(t, wl, pc, &ins)
			}
			for _, ins := range c.ResumeRoutines[pc] {
				checkRegBounds(t, wl, pc, &ins)
			}
		}
	}
}

func checkRegBounds(t *testing.T, wl *kernels.Workload, pc int, in *isa.Instruction) {
	t.Helper()
	check := func(r isa.Reg) {
		switch r.Class {
		case isa.RegVector:
			if int(r.Index) >= wl.Prog.AllocatedVRegs() {
				t.Errorf("%s pc %d: routine uses %s beyond allocation", wl.Abbrev, pc, r)
			}
		case isa.RegScalar:
			if int(r.Index) >= wl.Prog.AllocatedSRegs() {
				t.Errorf("%s pc %d: routine uses %s beyond allocation", wl.Abbrev, pc, r)
			}
		}
	}
	if in.Dst.Valid() {
		check(in.Dst)
	}
	for _, s := range in.SrcOperands() {
		if s.IsReg() {
			check(s.Reg)
		}
	}
}
