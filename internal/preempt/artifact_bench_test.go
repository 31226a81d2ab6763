package preempt

import (
	"testing"

	"ctxback/internal/artifact"
	"ctxback/internal/core"
	"ctxback/internal/kernels"
)

// benchKM builds the full-scale KM workload the headline compile-time
// numbers quote (the slowest cold compile in the registry).
func benchKM(b *testing.B) *kernels.Workload {
	b.Helper()
	wl, err := kernels.NewKM(kernels.EvalParams())
	if err != nil {
		b.Fatal(err)
	}
	return wl
}

// BenchmarkKMCompileCold is the price a process pays the first time it
// needs CTXBack plans for KM: the full compilation pass.
func BenchmarkKMCompileCold(b *testing.B) {
	wl := benchKM(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(wl.Prog, core.FeatAll); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMCompileWarm is the same construction served by a warm
// artifact store: per iteration a fresh Store (simulating a new process
// — the in-memory flight cache starts empty) loads and decodes the
// analysis and compiled-plan artifacts from disk.
func BenchmarkKMCompileWarm(b *testing.B) {
	wl := benchKM(b)
	dir := b.TempDir()
	diskStore(b, dir)
	if _, err := analysisFor(wl.Prog); err != nil {
		b.Fatal(err)
	}
	if _, err := NewCTXBack(wl.Prog); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := artifact.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		artifact.SetDefault(st)
		if _, err := analysisFor(wl.Prog); err != nil {
			b.Fatal(err)
		}
		if _, err := NewCTXBack(wl.Prog); err != nil {
			b.Fatal(err)
		}
		if comp, _, _ := st.Stats(); comp != 0 {
			b.Fatalf("warm iteration recomputed (%d computes)", comp)
		}
	}
}
