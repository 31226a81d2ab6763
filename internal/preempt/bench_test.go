package preempt

import (
	"testing"

	"ctxback/internal/kernels"
)

// BenchmarkTechniqueConstruct measures per-episode technique
// construction — the harness builds a fresh Technique for every
// (kernel, technique, sample) episode, so this path must be cheap. The
// static analyses (CFG, liveness, CTXBack compilation, checkpoint
// sites) are memoized per program; only per-run state is allocated
// here.
func BenchmarkTechniqueConstruct(b *testing.B) {
	wl, err := kernels.NewKM(kernels.TestParams())
	if err != nil {
		b.Fatal(err)
	}
	kinds := Kinds()
	// Warm the per-program caches once, as the harness's prepare phase
	// does implicitly.
	for _, k := range kinds {
		if _, err := New(k, wl.Prog); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range kinds {
			if _, err := New(k, wl.Prog); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTechniqueConstructKind splits BenchmarkTechniqueConstruct's
// warm construction by technique kind.
func BenchmarkTechniqueConstructKind(b *testing.B) {
	wl, err := kernels.NewKM(kernels.TestParams())
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range Kinds() {
		if _, err := New(k, wl.Prog); err != nil {
			b.Fatal(err)
		}
		b.Run(k.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(k, wl.Prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
