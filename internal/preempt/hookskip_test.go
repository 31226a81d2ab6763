package preempt

import (
	"fmt"
	"testing"

	"ctxback/internal/gen"
	"ctxback/internal/isa"
	"ctxback/internal/kernels"
	"ctxback/internal/sim"
)

// hookEveryInstr overrides its technique's Instruments to say yes to
// every program, so the device hooks every launch and calls Hook before
// every kernel instruction. It counts the instrumentation Hook returns
// for programs the technique says it does not instrument, which the
// contract says must be none.
type hookEveryInstr struct {
	Technique
	free  map[*isa.Program]bool
	leaks int
}

func (h *hookEveryInstr) Instruments(prog *isa.Program) bool { return true }

func (h *hookEveryInstr) Hook(w *sim.Warp, pc int) ([]isa.Decoded, *sim.SavedContext) {
	code, buf := h.Technique.Hook(w, pc)
	if len(code) > 0 && h.free[w.Prog] {
		h.leaks++
	}
	return code, buf
}

// TestHookSkipMatchesHookEveryInstr is the differential test of the
// per-launch hook skip (Runtime.Instruments' contract): a
// preempted, verified episode in which the device calls Hook only for
// launches it may instrument must equal the same episode with Hook
// called before every kernel instruction, in final clock, device stats,
// episode phases and memory, on the Table I kernels and generated
// programs under every technique.
func TestHookSkipMatchesHookEveryInstr(t *testing.T) {
	table, err := kernels.All(kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	wls := table
	for seed := uint64(0); seed < 64; seed++ {
		wls = append(wls, gen.Generate(seed).Workload())
	}
	skipped := 0
	for _, wl := range wls {
		_, total := goldenRun(t, wl)
		signal := max(total*45/100, 1)
		for _, kind := range ExtendedKinds() {
			name := fmt.Sprintf("%s/%v", wl.Abbrev, kind)
			tech, err := New(kind, wl.Prog)
			if err != nil {
				continue // SM-flushing and Chimera need idempotent kernels
			}
			free := !tech.Instruments(wl.Prog)
			if free {
				skipped++
			}
			d, ep := runtimeRun(t, wl, tech, signal)
			if err := wl.Verify(d); err != nil {
				t.Fatalf("%s: skip run: %v", name, err)
			}
			other, err := New(kind, wl.Prog)
			if err != nil {
				t.Fatal(err)
			}
			all := &hookEveryInstr{Technique: other, free: map[*isa.Program]bool{wl.Prog: free}}
			dAll, epAll := runtimeRun(t, wl, all, signal)
			if err := wl.Verify(dAll); err != nil {
				t.Fatalf("%s: every-instruction run: %v", name, err)
			}
			if all.leaks > 0 {
				t.Errorf("%s: Hook returned instrumentation %d times on a launch marked hook-free", name, all.leaks)
			}
			if (ep == nil) != (epAll == nil) {
				t.Fatalf("%s: episode %v with the skip, %v without", name, ep != nil, epAll != nil)
			}
			if ep != nil && ep.Phases() != epAll.Phases() {
				t.Errorf("%s: phases %+v with the skip, %+v without", name, ep.Phases(), epAll.Phases())
			}
			if d.Now() != dAll.Now() || d.Stats != dAll.Stats {
				t.Errorf("%s: clock %d stats %+v with the skip, clock %d stats %+v without",
					name, d.Now(), d.Stats, dAll.Now(), dAll.Stats)
			}
			if i := d.Mem.Diff(dAll.Mem); i >= 0 {
				t.Errorf("%s: mem[%d] = %#x with the skip, %#x without", name, i, d.Mem.Load(i), dAll.Mem.Load(i))
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no launch was hook-free: the skip went untested")
	}
}
