package preempt

import (
	"ctxback/internal/artifact"
	"ctxback/internal/core"
	"ctxback/internal/isa"
	"ctxback/internal/sim"
	"ctxback/internal/trace"
)

// ctxbackTech wires the core CTXBack pass into the simulator: dedicated
// per-PC preemption/resume routines plus the OSRB backup copies injected
// at block entries during normal execution.
type ctxbackTech struct {
	prog     *isa.Program
	compiled *core.Compiled
	code     *streams // its hook is empty where the compile placed no backup
}

// ctxbackStatic is a CTXBack compile and the memo of its routines.
type ctxbackStatic struct {
	*core.Compiled
	code *streams
}

// NewCTXBack compiles CTXBack with all three techniques enabled.
func NewCTXBack(prog *isa.Program) (Technique, error) {
	return NewCTXBackFeatures(prog, core.FeatAll)
}

// NewCTXBackFeatures compiles CTXBack with a feature subset (ablations).
func NewCTXBackFeatures(prog *isa.Program, feats core.Feature) (Technique, error) {
	s, err := ctxbackFor(prog, feats)
	if err != nil {
		return nil, err
	}
	return &ctxbackTech{prog: prog, compiled: s.Compiled, code: s.code}, nil
}

// CompileCTXBack returns the CTXBack pass output for prog under feats,
// memoized per (program content, features): the compile runs against
// prog's memoized CFG and liveness, and a warm disk store replaces it
// with a millisecond plan load relinked against that analysis. The
// Compiled's Prog and Graph may belong to the first content-equal
// program seen, which is fine because plan PCs are positional. The
// result is shared read-only.
func CompileCTXBack(prog *isa.Program, feats core.Feature) (*core.Compiled, error) {
	s, err := ctxbackFor(prog, feats)
	if err != nil {
		return nil, err
	}
	return s.Compiled, nil
}

// ctxbackFor is CompileCTXBack's memo entry: the compile with the memo
// of its routines.
func ctxbackFor(prog *isa.Program, feats core.Feature) (*ctxbackStatic, error) {
	static := func(c *core.Compiled, err error) (*ctxbackStatic, error) {
		return &ctxbackStatic{c, newStreams(prog, 3, prog.Len())}, err
	}
	return memo(progKey(kindCompiled, prog).
		Int("feats", int(feats)).
		Int("maxwindow", core.DefaultMaxWindow),
		func() (*ctxbackStatic, error) {
			a, err := analysisFor(prog)
			if err != nil {
				return nil, err
			}
			return static(core.CompileWith(prog, a.graph, a.live, feats, core.DefaultMaxWindow))
		},
		func(s *ctxbackStatic) []byte { return core.EncodeCompiled(s.Compiled) },
		func(p []byte) (*ctxbackStatic, error) {
			a, err := analysisFor(prog)
			if err != nil {
				return nil, err
			}
			return static(core.DecodeCompiled(prog, a.graph, a.live, p))
		})
}

// Compiled exposes the underlying pass output (selection details,
// routine-sharing stats).
func (t *ctxbackTech) Compiled() *core.Compiled { return t.compiled }

func (t *ctxbackTech) Kind() Kind   { return CTXBack }
func (t *ctxbackTech) Name() string { return CTXBack.String() }

// PhaseNames: CTXBack's replay is the context flashback — regenerating
// unsaved registers from the OSRB backups.
func (t *ctxbackTech) PhaseNames() trace.PhaseNames {
	return trace.PhaseNames{Drain: "drain", Save: "save", Restore: "restore", Replay: "flashback"}
}

// Instruments: OSRB backups fire exactly at the compiled
// instrumentation sites, so only a compile that placed some instruments
// its own program.
func (t *ctxbackTech) Instruments(prog *isa.Program) bool {
	return prog == t.prog && len(t.compiled.BackupAt) > 0
}

func (t *ctxbackTech) PreemptRoutine(w *sim.Warp) []isa.Decoded {
	pc := w.PC
	return t.code.at(onPreempt, pc, func() []isa.Instruction {
		return preemptCode(t.prog, t.compiled.PreemptRoutines[pc], pc)
	})
}

func (t *ctxbackTech) ResumeRoutine(w *sim.Warp) ([]isa.Decoded, *sim.SavedContext) {
	pc := w.Ctx().PC
	return t.code.at(onResume, pc, func() []isa.Instruction {
		return resumeCode(t.prog, t.compiled.ResumeRoutines[pc], pc)
	}), nil
}

// Hook injects the OSRB backup copies at instrumented block entries.
func (t *ctxbackTech) Hook(w *sim.Warp, pc int) ([]isa.Decoded, *sim.SavedContext) {
	if w.Prog != t.prog {
		return nil, nil // another kernel sharing the device
	}
	return t.code.at(onHook, pc, func() []isa.Instruction { return t.compiled.BackupAt[pc] }), nil
}

func (t *ctxbackTech) StaticContextBytes(pc int) int {
	// EXEC is always part of the swapped state; count it if the plan did
	// not already.
	plan := t.compiled.Plans[pc]
	bytes := plan.ContextBytes
	if _, ok := plan.InitRegs[isa.Exec]; !ok {
		bytes += isa.Exec.ContextBytes()
	}
	return bytes
}

func (t *ctxbackTech) EstPreemptCycles(pc int) int64 {
	plan := t.compiled.Plans[pc]
	return int64(len(plan.PreemptReverts)) + estTrafficCycles(t.StaticContextBytes(pc))
}

// combinedTech selects, per PC, whichever of CTXBack and CS-Defer has the
// smaller estimated preemption latency (paper §IV-C). The estimates are
// stall-blind, so the choice is occasionally sub-optimal — exactly the
// effect §V-B reports.
type combinedTech struct {
	prog   *isa.Program
	ctx    Technique
	csd    Technique
	useCTX []bool
}

// NewCombined compiles CTXBack+CS-Defer. The per-PC choice is a pure
// function of the program, so the selection table is memoized and
// shared read-only across episodes.
func NewCombined(prog *isa.Program) (Technique, error) {
	ctx, err := NewCTXBack(prog)
	if err != nil {
		return nil, err
	}
	csd, err := NewCSDefer(prog)
	if err != nil {
		return nil, err
	}
	useCTX, err := memo(progKey(kindCombined, prog),
		func() ([]bool, error) {
			useCTX := make([]bool, prog.Len())
			for pc := range useCTX {
				useCTX[pc] = ctx.EstPreemptCycles(pc) <= csd.EstPreemptCycles(pc)
			}
			return useCTX, nil
		},
		func(useCTX []bool) []byte {
			w := artifact.NewWriter()
			w.Int(len(useCTX))
			for _, b := range useCTX {
				w.Bool(b)
			}
			return w.Data()
		},
		func(p []byte) ([]bool, error) {
			r := artifact.NewReader(p)
			useCTX := make([]bool, r.Len(1))
			for pc := range useCTX {
				useCTX[pc] = r.Bool()
			}
			return useCTX, r.Close()
		})
	if err != nil {
		return nil, err
	}
	return &combinedTech{prog: prog, ctx: ctx, csd: csd, useCTX: useCTX}, nil
}

func (t *combinedTech) Kind() Kind   { return Combined }
func (t *combinedTech) Name() string { return Combined.String() }

// PhaseNames: the combination defers like CS-Defer and flashes back like
// CTXBack, depending on the signal PC.
func (t *combinedTech) PhaseNames() trace.PhaseNames {
	return trace.PhaseNames{Drain: "defer", Save: "save", Restore: "restore", Replay: "flashback"}
}

func (t *combinedTech) pick(pc int) Technique {
	if t.useCTX[pc] {
		return t.ctx
	}
	return t.csd
}

// Instruments mirrors Hook's delegation.
func (t *combinedTech) Instruments(prog *isa.Program) bool { return t.ctx.Instruments(prog) }

func (t *combinedTech) PreemptRoutine(w *sim.Warp) []isa.Decoded {
	return t.pick(w.PC).PreemptRoutine(w)
}

func (t *combinedTech) ResumeRoutine(w *sim.Warp) ([]isa.Decoded, *sim.SavedContext) {
	// The resume routine must match whichever technique generated the
	// saved context; the choice was a pure function of the PC that
	// observed the signal.
	return t.pick(w.PreemptPC()).ResumeRoutine(w)
}

func (t *combinedTech) Hook(w *sim.Warp, pc int) ([]isa.Decoded, *sim.SavedContext) {
	// OSRB instrumentation must run regardless of the per-PC choice: a
	// future signal anywhere in the block may use a CTXBack plan.
	return t.ctx.Hook(w, pc)
}

func (t *combinedTech) StaticContextBytes(pc int) int {
	return t.pick(pc).StaticContextBytes(pc)
}

func (t *combinedTech) EstPreemptCycles(pc int) int64 {
	return t.pick(pc).EstPreemptCycles(pc)
}
