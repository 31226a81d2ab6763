package preempt

import (
	"ctxback/internal/artifact"
	"ctxback/internal/isa"
	"ctxback/internal/liveness"
	"ctxback/internal/sim"
	"ctxback/internal/trace"
)

// baselineTech models the Linux AMDGPU driver context-switch routine: it
// swaps every allocated on-chip register (including alignment padding)
// regardless of liveness.
type baselineTech struct {
	prog *isa.Program
	*baselineStatic
}

// baselineStatic is BASELINE's compile: the swapped register set and
// the memo of its routines.
type baselineStatic struct {
	all  isa.RegSet
	code *streams
}

// NewBaseline compiles the BASELINE technique. The swapped register set
// is memoized per program and shared read-only across episodes.
func NewBaseline(prog *isa.Program) (Technique, error) {
	s, err := baselineFor(prog)
	if err != nil {
		return nil, err
	}
	return &baselineTech{prog: prog, baselineStatic: s}, nil
}

// baselineFor is BASELINE's compile for prog. Its compute validates the
// program, so validation runs once per program content rather than once
// per construction.
func baselineFor(prog *isa.Program) (*baselineStatic, error) {
	return memo(progKey(kindBaseline, prog),
		func() (*baselineStatic, error) {
			var all isa.RegSet
			if err := prog.Validate(); err != nil {
				return nil, err
			}
			for i := 0; i < prog.AllocatedVRegs(); i++ {
				all.Add(isa.V(i))
			}
			for i := 0; i < prog.AllocatedSRegs(); i++ {
				all.Add(isa.S(i))
			}
			all.Add(isa.Exec)
			all.Add(isa.VCC)
			all.Add(isa.SCC)
			return &baselineStatic{all: all, code: newStreams(prog, 2, prog.Len())}, nil
		},
		func(s *baselineStatic) []byte {
			w := artifact.NewWriter()
			liveness.EncodeRegSet(s.all, w)
			return w.Data()
		},
		func(p []byte) (*baselineStatic, error) {
			r := artifact.NewReader(p)
			s := &baselineStatic{all: liveness.DecodeRegSet(r), code: newStreams(prog, 2, prog.Len())}
			return s, r.Close()
		})
}

func (t *baselineTech) Kind() Kind   { return Baseline }
func (t *baselineTech) Name() string { return Baseline.String() }

func (t *baselineTech) PhaseNames() trace.PhaseNames { return trace.DefaultPhaseNames() }

// Instruments: BASELINE injects no instrumentation, so the device never
// hooks its launches and the harness forks its episodes from the golden
// run.
func (t *baselineTech) Instruments(prog *isa.Program) bool { return false }

func (t *baselineTech) PreemptRoutine(w *sim.Warp) []isa.Decoded {
	pc := w.PC
	return t.code.at(onPreempt, pc, func() []isa.Instruction {
		return preemptCode(t.prog, saveSet(t.all), pc)
	})
}

func (t *baselineTech) ResumeRoutine(w *sim.Warp) ([]isa.Decoded, *sim.SavedContext) {
	pc := w.Ctx().PC
	return t.code.at(onResume, pc, func() []isa.Instruction {
		return resumeCode(t.prog, loadSet(t.all), pc)
	}), nil
}

func (t *baselineTech) Hook(w *sim.Warp, pc int) ([]isa.Decoded, *sim.SavedContext) {
	return nil, nil
}

func (t *baselineTech) StaticContextBytes(pc int) int { return t.all.ContextBytes() }

func (t *baselineTech) EstPreemptCycles(pc int) int64 {
	return estTrafficCycles(t.StaticContextBytes(pc))
}

// liveTech swaps only the registers live at the preempted PC [4].
type liveTech struct {
	prog *isa.Program
	live *liveness.Info
	code *streams
}

// NewLive compiles the LIVE technique. Liveness is memoized per program
// so episode-frequency construction never re-runs the dataflow pass.
func NewLive(prog *isa.Program) (Technique, error) {
	a, err := analysisFor(prog)
	if err != nil {
		return nil, err
	}
	return &liveTech{prog: prog, live: a.live, code: a.code}, nil
}

func (t *liveTech) Kind() Kind   { return Live }
func (t *liveTech) Name() string { return Live.String() }

func (t *liveTech) PhaseNames() trace.PhaseNames { return trace.DefaultPhaseNames() }

// Instruments: LIVE injects no instrumentation.
func (t *liveTech) Instruments(prog *isa.Program) bool { return false }

// liveContext is the live register context at pc plus EXEC (the hardware
// always needs a correct mask to resume): what LIVE and CS-Defer swap.
func liveContext(live *liveness.Info, pc int) isa.RegSet {
	regs := live.Context(pc)
	regs.Add(isa.Exec)
	return regs
}

func (t *liveTech) PreemptRoutine(w *sim.Warp) []isa.Decoded {
	pc := w.PC
	return t.code.at(onPreempt, pc, func() []isa.Instruction {
		return preemptCode(t.prog, saveSet(liveContext(t.live, pc)), pc)
	})
}

func (t *liveTech) ResumeRoutine(w *sim.Warp) ([]isa.Decoded, *sim.SavedContext) {
	pc := w.Ctx().PC
	return t.code.at(onResume, pc, func() []isa.Instruction {
		return resumeCode(t.prog, loadSet(liveContext(t.live, pc)), pc)
	}), nil
}

func (t *liveTech) Hook(w *sim.Warp, pc int) ([]isa.Decoded, *sim.SavedContext) {
	return nil, nil
}

func (t *liveTech) StaticContextBytes(pc int) int { return liveContext(t.live, pc).ContextBytes() }

func (t *liveTech) EstPreemptCycles(pc int) int64 {
	return estTrafficCycles(t.StaticContextBytes(pc))
}
