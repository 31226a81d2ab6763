package sched

import (
	"ctxback/internal/isa"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
	"ctxback/internal/trace"
)

// muxRuntime dispatches the device-wide sim.Runtime hooks to per-job
// technique instances by the warp's program. The simulator attaches ONE
// runtime per device, but a scheduled run multiplexes many kernels —
// each with its own compiled technique (per-run state like CKPT
// snapshots must stay per job) — over that single attachment point.
type muxRuntime struct {
	kind  preempt.Kind
	techs map[*isa.Program]preempt.Technique
	// first is the first-registered technique: the deterministic
	// representative for whole-run queries like PhaseNames (map
	// iteration order would pick a random one).
	first preempt.Technique
}

func newMux(kind preempt.Kind) *muxRuntime {
	return &muxRuntime{kind: kind, techs: make(map[*isa.Program]preempt.Technique)}
}

func (m *muxRuntime) add(prog *isa.Program, t preempt.Technique) {
	if m.first == nil {
		m.first = t
	}
	m.techs[prog] = t
}

func (m *muxRuntime) Name() string { return m.kind.String() }

func (m *muxRuntime) PreemptRoutine(w *sim.Warp) []isa.Instruction {
	return m.techs[w.Prog].PreemptRoutine(w)
}

func (m *muxRuntime) ResumeRoutine(w *sim.Warp) ([]isa.Instruction, *sim.SavedContext) {
	return m.techs[w.Prog].ResumeRoutine(w)
}

func (m *muxRuntime) Hook(w *sim.Warp, pc int) ([]isa.Instruction, *sim.SavedContext) {
	t, ok := m.techs[w.Prog]
	if !ok {
		return nil, nil
	}
	return t.Hook(w, pc)
}

// HookAt (sim.HookPredicate) forwards to the warp's own technique so
// the device sees through the multiplexer: a launch whose technique
// never hooks its program is never hooked (sim.Instruments), and the
// epoch engine drains the hook-free pops of the others. Unknown programs
// never hook, techniques without a predicate conservatively always
// might. Admission registers a job's technique before its launch, so
// the launch-time decision sees it.
func (m *muxRuntime) HookAt(w *sim.Warp, pc int) bool {
	t, ok := m.techs[w.Prog]
	if !ok {
		return false
	}
	if hp, ok := t.(sim.HookPredicate); ok {
		return hp.HookAt(w, pc)
	}
	return true
}

// PhaseNames forwards the technique-flavored phase labels. One Kind
// drives the whole run, so every registered technique agrees; the
// first-registered one answers for all (deterministically — ranging
// over the techs map would consult an arbitrary instance).
func (m *muxRuntime) PhaseNames() trace.PhaseNames {
	if pn, ok := m.first.(sim.PhaseNamer); ok {
		return pn.PhaseNames()
	}
	return trace.DefaultPhaseNames()
}
