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
	all  isa.RegSet
}

// NewBaseline compiles the BASELINE technique. The swapped register set
// is memoized per program and shared read-only across episodes.
func NewBaseline(prog *isa.Program) (Technique, error) {
	all, err := baselineRegs(prog)
	if err != nil {
		return nil, err
	}
	return &baselineTech{prog: prog, all: all}, nil
}

// baselineRegs is the full allocated register set BASELINE swaps. Its
// compute validates the program, so validation runs once per program
// content rather than once per construction.
func baselineRegs(prog *isa.Program) (isa.RegSet, error) {
	return memo(progKey(kindBaseline, prog),
		func() (isa.RegSet, error) {
			var all isa.RegSet
			if err := prog.Validate(); err != nil {
				return all, err
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
			return all, nil
		},
		func(all isa.RegSet) []byte {
			w := artifact.NewWriter()
			liveness.EncodeRegSet(all, w)
			return w.Data()
		},
		func(p []byte) (isa.RegSet, error) {
			r := artifact.NewReader(p)
			all := liveness.DecodeRegSet(r)
			return all, r.Close()
		})
}

func (t *baselineTech) Kind() Kind   { return Baseline }
func (t *baselineTech) Name() string { return Baseline.String() }

func (t *baselineTech) PhaseNames() trace.PhaseNames { return trace.DefaultPhaseNames() }

func (t *baselineTech) PreemptRoutine(w *sim.Warp) []isa.Instruction {
	return finishPreempt(w, saveSet(t.all), w.PC)
}

func (t *baselineTech) ResumeRoutine(w *sim.Warp) ([]isa.Instruction, *sim.SavedContext) {
	return finishResume(w, loadSet(t.all), w.Ctx().PC), nil
}

func (t *baselineTech) Hook(w *sim.Warp, pc int) ([]isa.Instruction, *sim.SavedContext) {
	return nil, nil
}

// HookAt (sim.HookPredicate): BASELINE injects no instrumentation, so
// the epoch engine may drain every kernel instruction in parallel.
func (t *baselineTech) HookAt(w *sim.Warp, pc int) bool { return false }

func (t *baselineTech) StaticContextBytes(pc int) int { return t.all.ContextBytes() }

func (t *baselineTech) EstPreemptCycles(pc int) int64 {
	return estTrafficCycles(t.StaticContextBytes(pc))
}

// liveTech swaps only the registers live at the preempted PC [4].
type liveTech struct {
	prog *isa.Program
	live *liveness.Info
}

// NewLive compiles the LIVE technique. Liveness is memoized per program
// so episode-frequency construction never re-runs the dataflow pass.
func NewLive(prog *isa.Program) (Technique, error) {
	a, err := analysisFor(prog)
	if err != nil {
		return nil, err
	}
	return &liveTech{prog: prog, live: a.live}, nil
}

func (t *liveTech) Kind() Kind   { return Live }
func (t *liveTech) Name() string { return Live.String() }

func (t *liveTech) PhaseNames() trace.PhaseNames { return trace.DefaultPhaseNames() }

// contextAt is the live register context plus EXEC (the hardware always
// needs a correct mask to resume).
func (t *liveTech) contextAt(pc int) isa.RegSet {
	regs := t.live.Context(pc)
	regs.Add(isa.Exec)
	return regs
}

func (t *liveTech) PreemptRoutine(w *sim.Warp) []isa.Instruction {
	return finishPreempt(w, saveSet(t.contextAt(w.PC)), w.PC)
}

func (t *liveTech) ResumeRoutine(w *sim.Warp) ([]isa.Instruction, *sim.SavedContext) {
	pc := w.Ctx().PC
	return finishResume(w, loadSet(t.contextAt(pc)), pc), nil
}

func (t *liveTech) Hook(w *sim.Warp, pc int) ([]isa.Instruction, *sim.SavedContext) {
	return nil, nil
}

// HookAt (sim.HookPredicate): LIVE injects no instrumentation.
func (t *liveTech) HookAt(w *sim.Warp, pc int) bool { return false }

func (t *liveTech) StaticContextBytes(pc int) int { return t.contextAt(pc).ContextBytes() }

func (t *liveTech) EstPreemptCycles(pc int) int64 {
	return estTrafficCycles(t.StaticContextBytes(pc))
}
