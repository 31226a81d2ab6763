package preempt

import (
	"ctxback/internal/artifact"
	"ctxback/internal/cfg"
	"ctxback/internal/isa"
	"ctxback/internal/liveness"
)

// The evaluation harness constructs a fresh Technique per simulated
// episode (per-run state like CKPT snapshots must not leak between
// runs), but the static analyses behind a technique — CFG construction,
// liveness, CTXBack plans, deferral targets, checkpoint sites, the flush
// verdict — are pure functions of the program. Each of them takes one
// path: a content key naming the program by its Digest, then the
// process artifact store's single-flight Do, then the compute. So
// thousands of episode constructions against the same dozen kernels pay
// for each analysis once, and a program rebuilt as a fresh but
// content-equal value shares the result too.
//
// The process store is memory-only unless a CLI was given -cache-dir;
// then the same entries also persist on disk, through the codec each
// kind keeps next to its compute. All memoized values are shared
// read-only, and anything mutable stays on the per-episode technique.
// A memoized graph may belong to another, content-equal program, so
// techniques compare warps against their own program, never the graph's.

// Artifact kinds. Every key starts from the program's Digest, the
// SHA-256 of its canonical binary encoding (isa.EncodeProgram), so any
// program change — instructions, register counts, LDS footprint —
// changes every key. Parameters that scale the kernels (iteration
// counts, grid size) are baked into the generated instruction stream and
// are therefore covered by the same digest; inputs that are NOT
// program-derived (checkpoint interval, feature flags, window bound) are
// keyed explicitly, as TestStoredCompiledKeyedByFeats and
// TestStoredCkptStaticKeyedByInterval pin.
const (
	kindAnalysis = "preempt/analysis"
	kindBaseline = "preempt/baseline-regs"
	kindCompiled = "preempt/compiled"
	kindCombined = "preempt/combined-choice"
	kindCkpt     = "preempt/ckpt-static"
	kindCSDefer  = "preempt/csdefer-targets"
	kindFlush    = "preempt/flush-static"
)

// memo resolves one program-derived artifact through the process store.
// enc and dec are the kind's disk form; a memory-only store never calls
// them. compute must not look up its own key.
func memo[T any](key *artifact.Key, compute func() (T, error),
	enc func(T) []byte, dec func([]byte) (T, error)) (T, error) {
	v, err := artifact.Default().Do(key, artifact.Codec{
		Encode: func(v any) []byte { return enc(v.(T)) },
		Decode: func(p []byte) (any, error) { return dec(p) },
	}, func() (any, error) { return compute() })
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// progKey starts the key of an artifact kind derived from prog.
func progKey(kind string, prog *isa.Program) *artifact.Key {
	d := prog.Digest()
	return artifact.NewKey(kind).Bytes("prog", d[:])
}

// progAnalysis bundles the shared CFG + liveness result, and the memo
// of the routines LIVE and CS-Defer build from it: the two share the
// resume routine restoring the live context at a PC.
type progAnalysis struct {
	graph *cfg.Graph
	live  *liveness.Info
	code  *streams
}

func newAnalysis(prog *isa.Program, g *cfg.Graph, live *liveness.Info) *progAnalysis {
	return &progAnalysis{graph: g, live: live, code: newStreams(prog, 4, prog.Len())}
}

// analysisFor returns prog's CFG and liveness analysis.
func analysisFor(prog *isa.Program) (*progAnalysis, error) {
	return memo(progKey(kindAnalysis, prog),
		func() (*progAnalysis, error) {
			g, err := cfg.Build(prog)
			if err != nil {
				return nil, err
			}
			return newAnalysis(prog, g, liveness.Analyze(g)), nil
		},
		func(a *progAnalysis) []byte {
			w := artifact.NewWriter()
			cfg.EncodeGraph(a.graph, w)
			liveness.EncodeInfo(a.live, w)
			return w.Data()
		},
		func(p []byte) (*progAnalysis, error) {
			r := artifact.NewReader(p)
			g, err := cfg.DecodeGraph(prog, r)
			if err != nil {
				return nil, err
			}
			live, err := liveness.DecodeInfo(g, r)
			if err != nil {
				return nil, err
			}
			return newAnalysis(prog, g, live), r.Close()
		})
}
