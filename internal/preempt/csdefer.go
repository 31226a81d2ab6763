package preempt

import (
	"slices"

	"ctxback/internal/artifact"
	"ctxback/internal/cfg"
	"ctxback/internal/isa"
	"ctxback/internal/sim"
	"ctxback/internal/trace"
)

// csdeferTech implements CS-Defer [4]: on a preemption signal at P, the
// warp keeps executing until a succeeding instruction D with a small
// register context, then swaps D's live context. No re-execution at
// resume, but the deferral contributes its full execution time —
// including memory stalls — to the preemption latency.
type csdeferTech struct {
	// liveTech: CS-Defer swaps the live context of the instruction it
	// defers to, so it resumes, from the same memo, and instruments
	// nothing, as LIVE does.
	liveTech
	// target[pc] is the deferral destination for a signal at pc.
	target []int
}

// NewCSDefer compiles CS-Defer: for every PC, the minimum-live-context
// instruction reachable by straight-line execution (same basic block, no
// barrier or atomic crossed — the deferral runs inside the preemption
// routine where block-wide synchronization would deadlock). Liveness and
// the deferral-target table are memoized per program.
func NewCSDefer(prog *isa.Program) (Technique, error) {
	a, err := analysisFor(prog)
	if err != nil {
		return nil, err
	}
	target, err := csdeferTargets(prog, a)
	if err != nil {
		return nil, err
	}
	return &csdeferTech{liveTech: liveTech{prog: prog, live: a.live, code: a.code}, target: target}, nil
}

// csdeferTargets is the per-PC deferral destination table for prog,
// whose analysis is a: each PC's live context size once, then one
// deferTarget scan per PC.
func csdeferTargets(prog *isa.Program, a *progAnalysis) ([]int, error) {
	return memo(progKey(kindCSDefer, prog),
		func() ([]int, error) {
			ctxBytes := make([]int, prog.Len())
			for pc := range ctxBytes {
				ctxBytes[pc] = a.live.ContextBytes(pc)
			}
			target := make([]int, prog.Len())
			for pc := range target {
				target[pc] = deferTarget(prog, a.graph, ctxBytes, pc)
			}
			return target, nil
		},
		func(target []int) []byte {
			w := artifact.NewWriter()
			w.Int(len(target))
			for _, t := range target {
				w.Int(t)
			}
			return w.Data()
		},
		func(p []byte) ([]int, error) {
			r := artifact.NewReader(p)
			if r.Len(8) != prog.Len() {
				return nil, artifact.ErrCorrupt
			}
			target := make([]int, prog.Len())
			for i := range target {
				target[i] = r.Int()
			}
			return target, r.Close()
		})
}

// deferTarget scans the straight-line window from pc for the first
// instruction with the smallest live context; ctxBytes[d] is the live
// context size at d.
func deferTarget(prog *isa.Program, g *cfg.Graph, ctxBytes []int, pc int) int {
	end := g.BlockOf(pc).End
	best := pc
	for d := pc; d < end; d++ {
		if ctxBytes[d] < ctxBytes[best] {
			best = d
		}
		in := prog.At(d)
		if in.Op == isa.SBarrier || in.Op.Info().Class == isa.ClassAtomic || in.Op == isa.SEndpgm {
			break // cannot defer across synchronization
		}
	}
	return best
}

func (t *csdeferTech) Kind() Kind   { return CSDefer }
func (t *csdeferTech) Name() string { return CSDefer.String() }

// PhaseNames: the pre-save phase is the deliberate deferral to a
// small-context point, not a plain drain.
func (t *csdeferTech) PhaseNames() trace.PhaseNames {
	return trace.PhaseNames{Drain: "defer", Save: "save", Restore: "restore", Replay: "replay"}
}

func (t *csdeferTech) PreemptRoutine(w *sim.Warp) []isa.Decoded {
	pc := w.PC
	return t.code.at(onDefer, pc, func() []isa.Instruction {
		d := t.target[pc]
		// Deferral: execute the original instructions up to D inside the
		// routine (they are real progress; stores land, loads stall).
		return preemptCode(t.prog, slices.Concat(t.prog.Instrs[pc:d], saveSet(liveContext(t.live, d))), d)
	})
}

func (t *csdeferTech) StaticContextBytes(pc int) int {
	return liveContext(t.live, t.target[pc]).ContextBytes()
}

// EstPreemptCycles sums the deferred instructions' issue cycles plus the
// context traffic. Memory stalls in the deferral window are not modeled
// (paper §V-B: "the potential latency induced by the preceding
// instructions is not considered"), so this estimate is systematically
// optimistic for CS-Defer.
func (t *csdeferTech) EstPreemptCycles(pc int) int64 {
	d := t.target[pc]
	var cycles int64
	for i := pc; i < d; i++ {
		cycles += int64(t.prog.At(i).Op.Info().IssueCycles)
	}
	return cycles + estTrafficCycles(t.StaticContextBytes(pc))
}
