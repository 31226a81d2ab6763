package core

import (
	"testing"

	"ctxback/internal/gen"
	"ctxback/internal/isa"
	"ctxback/internal/kernels"
)

// BenchmarkCoreCompileKM compiles KM, the repository's largest kernel,
// from scratch at TestParams: CFG, liveness and the full flashback
// search. Run with -benchmem: allocs/op is the compile's allocation
// budget.
func BenchmarkCoreCompileKM(b *testing.B) {
	wl, err := kernels.ByAbbrev("KM", kernels.TestParams())
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if _, err := Compile(wl.Prog.Clone(), FeatAll); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(wl.Prog.Len()), "instrs")
}

// BenchmarkCoreCompileGen compiles a fixed set of 40 generated programs
// (seeds 0-39, the generated-corpus workload's kind of input), each as a
// fresh clone so that no cache keyed by program identity can help.
func BenchmarkCoreCompileGen(b *testing.B) {
	var progs []*isa.Program
	for seed := uint64(0); seed < 40; seed++ {
		progs = append(progs, gen.Generate(seed).Prog)
	}
	for b.Loop() {
		for _, p := range progs {
			if _, err := Compile(p.Clone(), FeatAll); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(progs)), "programs")
}
