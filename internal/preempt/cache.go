package preempt

import (
	"sync"

	"ctxback/internal/artifact"
	"ctxback/internal/cfg"
	"ctxback/internal/isa"
	"ctxback/internal/liveness"
)

// The evaluation harness constructs a fresh Technique per simulated
// episode (per-run state like CKPT snapshots must not leak between
// runs), but the static analyses behind a technique — CFG construction,
// liveness, deferral targets, checkpoint sites — are pure functions of
// the program. These caches memoize that immutable output per program
// identity so thousands of episode constructions against the same dozen
// kernels pay for each analysis once. All cached values are shared
// read-only; anything mutable stays on the per-episode technique.
//
// Keys are *isa.Program pointers: the harness shares one prepared
// workload (and thus one Program value) across every episode of a
// kernel, so pointer identity is the natural — and cheapest — key. A
// program rebuilt as a fresh value simply misses and re-analyzes. The
// maps grow with the number of distinct programs per process, which is
// bounded in every current caller (12 kernels x a few parameter sets).

// progAnalysis bundles the shared CFG + liveness result.
type progAnalysis struct {
	graph *cfg.Graph
	live  *liveness.Info
}

var analysisCache sync.Map // *isa.Program -> *progAnalysis

// analysisFor returns the memoized CFG and liveness analysis for prog.
// Concurrent first callers may both compute; the analyses are
// deterministic so either result is valid and LoadOrStore picks one.
// With a configured artifact store the content-addressed copy on disk is
// consulted first, sharing the analysis across processes.
func analysisFor(prog *isa.Program) (*progAnalysis, error) {
	if a, ok := analysisCache.Load(prog); ok {
		return a.(*progAnalysis), nil
	}
	var a *progAnalysis
	if st := artifact.Default(); st != nil {
		var err error
		a, err = storedAnalysis(st, prog)
		if err != nil {
			return nil, err
		}
	} else {
		g, err := cfg.Build(prog)
		if err != nil {
			return nil, err
		}
		a = &progAnalysis{graph: g, live: liveness.Analyze(g)}
	}
	got, _ := analysisCache.LoadOrStore(prog, a)
	return got.(*progAnalysis), nil
}

var baselineCache sync.Map // *isa.Program -> isa.RegSet

// baselineRegs returns the memoized full allocated register set BASELINE
// swaps. The set is shared read-only across episodes.
func baselineRegs(prog *isa.Program) isa.RegSet {
	if s, ok := baselineCache.Load(prog); ok {
		return s.(isa.RegSet)
	}
	all := make(isa.RegSet)
	for i := 0; i < prog.AllocatedVRegs(); i++ {
		all.Add(isa.V(i))
	}
	for i := 0; i < prog.AllocatedSRegs(); i++ {
		all.Add(isa.S(i))
	}
	all.Add(isa.Exec)
	all.Add(isa.VCC)
	all.Add(isa.SCC)
	got, _ := baselineCache.LoadOrStore(prog, all)
	return got.(isa.RegSet)
}

var csdeferCache sync.Map // *isa.Program -> []int

// csdeferTargets returns the memoized per-PC deferral destinations,
// consulting the artifact store when one is configured.
func csdeferTargets(prog *isa.Program, g *cfg.Graph, live *liveness.Info) []int {
	if t, ok := csdeferCache.Load(prog); ok {
		return t.([]int)
	}
	var target []int
	if st := artifact.Default(); st != nil {
		var err error
		target, err = storedCSDeferTargets(st, prog, g, live)
		if err != nil {
			target = nil
		}
	}
	if target == nil {
		target = computeCSDeferTargets(prog, g, live)
	}
	got, _ := csdeferCache.LoadOrStore(prog, target)
	return got.([]int)
}

// computeCSDeferTargets is the cold path: each PC's live context size
// once, then one deferTarget scan per PC.
func computeCSDeferTargets(prog *isa.Program, g *cfg.Graph, live *liveness.Info) []int {
	ctxBytes := make([]int, prog.Len())
	for pc := range ctxBytes {
		ctxBytes[pc] = live.ContextBytes(pc)
	}
	target := make([]int, prog.Len())
	for pc := range target {
		target[pc] = deferTarget(prog, g, ctxBytes, pc)
	}
	return target
}

// ckptStatic is the immutable part of a CKPT compilation: checkpoint
// sites and forced-snapshot PCs. Per-run snapshot state lives on the
// technique instance, never here.
type ckptStatic struct {
	live   *liveness.Info
	site   map[int]int
	siteOf map[int]bool
	forced map[int]bool
}

type ckptKey struct {
	prog     *isa.Program
	interval int
}

var ckptCache sync.Map // ckptKey -> *ckptStatic
