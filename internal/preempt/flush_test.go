package preempt

import (
	"testing"

	"ctxback/internal/kernels"
	"ctxback/internal/sim"
)

// The extension techniques must uphold the same golden-equivalence
// property as the paper's six.
func TestFlushAndChimeraGoldenEquivalence(t *testing.T) {
	all, err := kernels.All(kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range all {
		wl := wl
		t.Run(wl.Abbrev, func(t *testing.T) {
			golden, total := goldenRun(t, wl)
			for _, kind := range []Kind{SMFlush, Chimera} {
				if kind == SMFlush && wl.Abbrev == "HS" {
					// HS contains atomics: not flushable (verified below).
					continue
				}
				for _, f := range []float64{0.2, 0.7} {
					d, _ := preemptedRun(t, wl, kind, int64(f*float64(total)))
					if err := wl.Verify(d); err != nil {
						t.Errorf("%v@%.0f%%: %v", kind, f*100, err)
						continue
					}
					if i := golden.Mem.Diff(d.Mem); i >= 0 {
						t.Errorf("%v@%.0f%%: mem[%d] differs", kind, f*100, i)
					}
				}
			}
		})
	}
}

func TestSMFlushRefusesAtomics(t *testing.T) {
	wl, err := kernels.ByAbbrev("HS", kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSMFlush(wl.Prog); err == nil {
		t.Error("HS contains atomics; NewSMFlush must refuse it")
	}
	// Chimera must still be constructible — it just never flushes.
	ch, err := NewChimera(wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if ch.(*chimeraTech).useFlush(0) {
		t.Error("Chimera must never flush a non-idempotent kernel")
	}
}

func TestSMFlushNearZeroLatency(t *testing.T) {
	wl, err := kernels.ByAbbrev("VA", kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	flush, err := New(SMFlush, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	base, err := New(Baseline, wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(tech Technique) int64 {
		d := mustDevice(sim.TestConfig())
		d.AttachRuntime(tech)
		wl2, _ := kernels.ByAbbrev("VA", kernels.TestParams())
		if _, err := wl2.Launch(d); err != nil {
			t.Fatal(err)
		}
		if err := d.RunUntil(func() bool { return d.Now() > 300 }, 1<<30); err != nil {
			t.Fatal(err)
		}
		ep, err := d.Preempt(0, tech)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.RunUntil(ep.Saved, 1<<30); err != nil {
			t.Fatal(err)
		}
		return ep.PreemptLatencyCycles()
	}
	fl, bl := measure(flush), measure(base)
	if fl*4 > bl {
		t.Errorf("flush latency (%d) should be far below BASELINE (%d)", fl, bl)
	}
}

func TestChimeraPicksFlushEarlyAndSwitchLate(t *testing.T) {
	wl, err := kernels.ByAbbrev("VA", kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	tech, err := NewChimera(wl.Prog)
	if err != nil {
		t.Fatal(err)
	}
	ch := tech.(*chimeraTech)
	if !ch.useFlush(1) {
		t.Error("a warp with almost no progress should be flushed")
	}
	if ch.useFlush(ch.flushBudget * 100) {
		t.Error("a warp deep into execution should be context-switched")
	}
}
