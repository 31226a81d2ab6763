package preempt

import (
	"testing"

	"ctxback/internal/cfg"
	"ctxback/internal/gen"
	"ctxback/internal/isa"
	"ctxback/internal/kernels"
	"ctxback/internal/liveness"
)

// deferTargetScan is the reference CS-Defer target search: it asks
// liveness for the context size at every PC of every window, with no
// per-program table.
func deferTargetScan(prog *isa.Program, g *cfg.Graph, live *liveness.Info, pc int) int {
	end := g.BlockOf(pc).End
	best, bestBytes := pc, live.ContextBytes(pc)
	for d := pc; d < end; d++ {
		if b := live.ContextBytes(d); b < bestBytes {
			best, bestBytes = d, b
		}
		in := prog.At(d)
		if in.Op == isa.SBarrier || in.Op.Info().Class == isa.ClassAtomic || in.Op == isa.SEndpgm {
			break
		}
	}
	return best
}

// TestCSDeferTargetsMatchScan pins the table-driven CS-Defer targets to
// the reference scan, PC by PC, over the 12 evaluation kernels and 200
// generated programs.
func TestCSDeferTargetsMatchScan(t *testing.T) {
	wls, err := kernels.All(kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	var progs []*isa.Program
	for _, wl := range wls {
		progs = append(progs, wl.Prog)
	}
	for seed := uint64(0); seed < 200; seed++ {
		progs = append(progs, gen.Generate(seed).Prog)
	}
	for _, prog := range progs {
		a := mustAnalysis(t, prog)
		got, err := csdeferTargets(prog, a)
		if err != nil {
			t.Fatal(err)
		}
		for pc := range got {
			if want := deferTargetScan(prog, a.graph, a.live, pc); got[pc] != want {
				t.Fatalf("%s pc %d: target %d, reference scan %d", prog.Name, pc, got[pc], want)
			}
		}
	}
}
