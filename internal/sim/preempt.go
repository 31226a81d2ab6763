package sim

import (
	"errors"
	"fmt"

	"ctxback/internal/trace"
)

// ErrDrained marks a preemption request against an SM with no running
// kernel warps: there is nothing to save, the SM is already free. It is
// an expected outcome near the end of a kernel, not a failure — callers
// discriminate it from real errors with errors.Is.
var ErrDrained = errors.New("no running kernel warps to preempt (drained)")

// Episode is one preemption of an SM: every kernel-mode warp resident on
// the SM saves its context through the attached technique and releases
// its slot; Resume brings them back later.
type Episode struct {
	SM      *SM
	rt      Runtime
	pending bool // signal raised, some warps not yet in their routine
	// frozen lists launches that may not place new blocks on the vacated
	// SM while the episode is active.
	frozen map[*Launch]bool

	Victims []*Warp

	SignalCycle   int64
	AllSavedCycle int64 // last CtxExit (incl. outstanding stores)
	ResumeStart   int64
	AllResumed    int64

	// Faults counts what this episode survived under fault injection
	// (all zero when no injector is attached).
	Faults EpisodeFaults

	enteredCount int
	savedCount   int
	resumedCount int

	// Phase bookkeeping: the cycle the LAST victim entered its
	// preemption routine, and the cycle the LAST victim's CtxResume
	// retired. Maintained unconditionally (two compares per warp per
	// episode) so EpisodeStats can break latencies into phases even when
	// no recorder is attached.
	enterLast   int64
	restoreLast int64

	tech  string
	names trace.PhaseNames
}

// Phases is the decomposition of an episode's two latencies into the
// four canonical phases. By construction Drain+Save ==
// PreemptLatencyCycles and Restore+Replay == ResumeCycles, exactly.
type Phases struct {
	Drain   int64 // signal raised → last victim entered its routine
	Save    int64 // → SM fully released (all context stores landed)
	Restore int64 // resume start → last context fully restored
	Replay  int64 // → logical progress regained on every victim
}

// Phases returns the episode's phase breakdown. The boundary cycles are
// clamped into their enclosing intervals (a victim's replay instruction
// can retire before an unrelated outstanding restore load lands), which
// guarantees the sums reconcile exactly with the headline latencies.
func (ep *Episode) Phases() Phases {
	enter := min(max(ep.enterLast, ep.SignalCycle), ep.AllSavedCycle)
	restore := min(max(ep.restoreLast, ep.ResumeStart), ep.AllResumed)
	return Phases{
		Drain:   enter - ep.SignalCycle,
		Save:    ep.AllSavedCycle - enter,
		Restore: restore - ep.ResumeStart,
		Replay:  ep.AllResumed - restore,
	}
}

// Technique returns the name of the runtime driving this episode.
func (ep *Episode) Technique() string { return ep.tech }

// PhaseNames returns the technique-flavored labels for this episode's
// phases.
func (ep *Episode) PhaseNames() trace.PhaseNames { return ep.names }

// AttachRuntime installs the preemption technique runtime whose Hook
// instrumentation (checkpoints, OSRB copies) should run during normal
// execution, and decides anew for every launch whether rt may hook it
// (Runtime.Instruments). Required before Preempt with the same runtime.
func (d *Device) AttachRuntime(rt Runtime) {
	d.rt = rt
	for _, l := range d.launches {
		l.hooked = d.instruments(l.Spec.Prog)
	}
}

// Parked reports whether the episode is swapped out: every context is
// saved but resume has not started. A parked episode's SM may host a new
// tenant — and even a new episode against that tenant — while the
// victims wait in device memory.
func (ep *Episode) Parked() bool { return ep.Saved() && ep.ResumeStart == 0 }

// Preempt raises a preemption signal on SM smID at the current cycle.
// Every resident kernel warp will enter its dedicated preemption routine
// before issuing its next instruction.
//
// An SM whose previous episode is parked (fully saved, not resumed) may
// be preempted again: the new episode's victims are the warps running
// now (a newcomer tenant), while the parked victims stay swapped out
// untouched. Preempting mid-save or mid-resume is an error — warps in
// their switch routines have no consistent cut point.
func (d *Device) Preempt(smID int, rt Runtime) (*Episode, error) {
	if smID < 0 || smID >= len(d.SMs) {
		return nil, fmt.Errorf("sim: no SM %d", smID)
	}
	sm := d.SMs[smID]
	if prev := sm.episode; prev != nil && !prev.Finished() && !prev.Parked() {
		if prev.ResumeStart != 0 {
			return nil, fmt.Errorf("sim: SM %d episode is mid-resume; preempt-while-resuming is not allowed", smID)
		}
		return nil, fmt.Errorf("sim: SM %d already has an active episode", smID)
	}
	if d.faults != nil && d.faults.DropSignal(smID) {
		// The signal was lost in delivery: no SM state changes. Callers
		// recover by re-raising (each delivery attempt draws its own
		// fault decision).
		return nil, fmt.Errorf("sim: SM %d: %w", smID, ErrSignalLost)
	}
	ep := &Episode{SM: sm, rt: rt, pending: true, SignalCycle: d.now,
		frozen: make(map[*Launch]bool)}
	// Launches already in flight may not re-dispatch blocks onto the
	// freed SM: it is being vacated for a newcomer.
	for _, l := range d.launches {
		ep.frozen[l] = true
	}
	for _, w := range sm.Warps {
		if w.State == WarpDone || w.State == WarpPreempted {
			continue
		}
		ep.Victims = append(ep.Victims, w)
	}
	if len(ep.Victims) == 0 {
		return nil, fmt.Errorf("sim: SM %d: %w", smID, ErrDrained)
	}
	// A block whose peers already ran to completion still owns its whole
	// LDS allocation — shared data staged by any warp (a matrix tile, a
	// broadcast vector) stays live for the survivors. The per-warp save
	// shares are fixed at launch, so a victim preempted next to a Done
	// peer would save only its own slice while the all-saved poison wipes
	// the full block; the orphaned slice could never be restored. Fold
	// each Done warp's share into an adjacent victim so the victims'
	// shares cover the entire block. When every warp is a victim this
	// reproduces the launch-time split exactly.
	coverOrphanLDSShares(ep.Victims)
	ep.tech = rt.Name()
	ep.names = rt.PhaseNames()
	if d.rec != nil {
		d.rec.Emit(trace.Event{Name: "preempt-signal", Cat: trace.CatEpisode, Ph: trace.PhInstant,
			Cycle: d.now, SM: smID, Warp: -1, Tech: ep.tech})
	}
	sm.episode = ep
	sm.offline = true
	// Barrier-waiting warps cannot observe the signal by issuing; preempt
	// them in place at the barrier instruction (they re-arrive on
	// resume).
	for _, w := range ep.Victims {
		if w.barrierWait {
			w.barrierWait = false
			w.State = WarpReady
			w.PC-- // back to the barrier instruction itself
			w.ReadyAt = max(w.ReadyAt, d.now)
			d.enqueueReady(w)
		}
	}
	if d.faults != nil && d.faults.DupSignal(smID) {
		// A duplicated delivery raises the signal a second time while the
		// episode is active; the active-episode guard above rejects the
		// duplicate, so it is absorbed. Surface that as a counter.
		ep.Faults.AbsorbedDupSignals++
	}
	return ep, nil
}

// beginPreempt switches a warp into its dedicated preemption routine.
func (sm *SM) beginPreempt(w *Warp, t int64) {
	ep := sm.episode
	rec := &PreemptRecord{
		SignalCycle: ep.SignalCycle,
		EnterCycle:  t,
		DynAtSignal: w.DynCount,
		PCAtSignal:  w.PC,
	}
	w.preemptRec = rec
	if t > ep.enterLast {
		ep.enterLast = t
	}
	if d := sm.Dev; d.faults != nil || d.resumeChecker != nil {
		// Capture the signal-point architectural state for the
		// resume-integrity oracle before any routine instruction runs.
		w.snapshot = w.snapshotArch()
	}
	w.episode = ep
	w.ctx = NewSavedContext()
	w.enterRoutine(ModePreemptRoutine, ep.rt.PreemptRoutine(w))
	ep.noteEntered()
}

// noteEntered counts victims that entered their preemption routine.
// The count lives on the episode, NOT derived from the warps' records: a
// warp preempted before keeps its old record until the new episode
// replaces it, so scanning records would clear the pending signal early
// and let re-preempted victims run free.
func (ep *Episode) noteEntered() {
	ep.enteredCount++
	if ep.enteredCount == len(ep.Victims) {
		ep.pending = false
	}
}

func (ep *Episode) onWarpSaved(w *Warp, cycle int64) {
	if inj := ep.SM.Dev.faults; inj != nil && inj.ChecksumEnabled() {
		// Seal the saved context: the checksum is verified before the
		// buffer is consumed at resume.
		w.preemptRec.SavedChecksum = w.ctx.Checksum()
		w.preemptRec.HasChecksum = true
	}
	ep.savedCount++
	if cycle > ep.AllSavedCycle {
		ep.AllSavedCycle = cycle
	}
	if r := ep.SM.Dev.rec; r != nil {
		rec := w.preemptRec
		r.Emit(trace.Event{Name: ep.names.Save, Cat: trace.CatWarp, Ph: trace.PhComplete,
			Cycle: rec.EnterCycle, Dur: cycle - rec.EnterCycle, SM: ep.SM.ID, Warp: w.ID,
			Tech: ep.tech, Bytes: rec.SavedBytes})
	}
	if ep.savedCount == len(ep.Victims) {
		// All context saved: resources are released; poison the LDS of
		// victim blocks so un-restored state cannot leak through resume.
		blocks := map[*LDSBlock]bool{}
		for _, v := range ep.Victims {
			blocks[v.LDS] = true
		}
		for b := range blocks {
			for i := range b.Data {
				b.Data[i] = 0xDEADBEEF
			}
		}
		if r := ep.SM.Dev.rec; r != nil {
			ph := ep.Phases()
			r.Emit(trace.Event{Name: ep.names.Drain, Cat: trace.CatEpisode, Ph: trace.PhComplete,
				Cycle: ep.SignalCycle, Dur: ph.Drain, SM: ep.SM.ID, Warp: -1, Tech: ep.tech})
			r.Emit(trace.Event{Name: ep.names.Save, Cat: trace.CatEpisode, Ph: trace.PhComplete,
				Cycle: ep.SignalCycle + ph.Drain, Dur: ph.Save, SM: ep.SM.ID, Warp: -1,
				Tech: ep.tech, Bytes: ep.SavedBytes()})
		}
		// The SM's resources are free the moment the last context is
		// saved: launches that arrived after the signal (the newcomer the
		// SM was vacated for) may place blocks now, without waiting for
		// the victims to resume. Launches frozen by the episode stay
		// barred by the dispatch gate until it fully finishes.
		ep.SM.Dev.redispatch()
	}
}

// onWarpRestored marks w's context fully re-materialized (CtxResume
// retired with every restore load landed). Replay — if the technique
// needs any — runs after this point.
func (ep *Episode) onWarpRestored(w *Warp, cycle int64) {
	if cycle > ep.restoreLast {
		ep.restoreLast = cycle
	}
	if r := ep.SM.Dev.rec; r != nil {
		rec := w.preemptRec
		r.Emit(trace.Event{Name: ep.names.Restore, Cat: trace.CatWarp, Ph: trace.PhComplete,
			Cycle: rec.ResumeStart, Dur: cycle - rec.ResumeStart, SM: ep.SM.ID, Warp: w.ID,
			Tech: ep.tech, Bytes: rec.RestoredBytes})
	}
}

func (ep *Episode) onWarpResumed(w *Warp, cycle int64) {
	ep.resumedCount++
	if cycle > ep.AllResumed {
		ep.AllResumed = cycle
	}
	if r := ep.SM.Dev.rec; r != nil {
		if rec := w.preemptRec; rec.RestoreDone > 0 && cycle > rec.RestoreDone {
			r.Emit(trace.Event{Name: ep.names.Replay, Cat: trace.CatWarp, Ph: trace.PhComplete,
				Cycle: rec.RestoreDone, Dur: cycle - rec.RestoreDone, SM: ep.SM.ID, Warp: w.ID,
				Tech: ep.tech})
		}
	}
	if ep.resumedCount == len(ep.Victims) {
		if r := ep.SM.Dev.rec; r != nil {
			ph := ep.Phases()
			r.Emit(trace.Event{Name: ep.names.Restore, Cat: trace.CatEpisode, Ph: trace.PhComplete,
				Cycle: ep.ResumeStart, Dur: ph.Restore, SM: ep.SM.ID, Warp: -1, Tech: ep.tech})
			r.Emit(trace.Event{Name: ep.names.Replay, Cat: trace.CatEpisode, Ph: trace.PhComplete,
				Cycle: ep.ResumeStart + ph.Restore, Dur: ph.Replay, SM: ep.SM.ID, Warp: -1,
				Tech: ep.tech})
		}
		// A parked episode's SM pointer may have moved on to a newer
		// episode by the time its victims finish resuming; only release
		// the SM if this episode still owns it.
		if ep.SM.episode == ep {
			ep.SM.offline = false
			ep.SM.episode = nil
		}
		ep.SM.Dev.redispatch()
	}
}

func (d *Device) redispatch() {
	for _, l := range d.launches {
		d.dispatch(l)
	}
}

// isVictim reports whether w is one of the warps the episode's signal
// was raised against. Victims is small (at most one SM's warp slots) and
// the check only runs while the signal is pending, so a linear scan is
// fine.
func (ep *Episode) isVictim(w *Warp) bool {
	for _, v := range ep.Victims {
		if v == w {
			return true
		}
	}
	return false
}

// coverOrphanLDSShares re-partitions each victim block's LDS save
// coverage so the union of the victims' shares spans the whole block
// even when some peers finished before the signal. Shares stay
// contiguous: leading Done warps fold into the first victim, later ones
// into the nearest victim before them. Blocks holding a parked
// (WarpPreempted) peer are left untouched — that peer restores its own
// share from its own episode.
func coverOrphanLDSShares(victims []*Warp) {
	victim := map[*Warp]bool{}
	blocks := map[*blockInfo]bool{}
	for _, w := range victims {
		victim[w] = true
		if w.Prog.LDSBytes > 0 {
			blocks[w.launch.blocks[w.BlockID]] = true
		}
	}
	for bi := range blocks {
		parked := false
		for _, w := range bi.warps {
			if w.State == WarpPreempted {
				parked = true
				break
			}
		}
		if parked {
			continue
		}
		n := len(bi.warps)
		share := bi.warps[0].Prog.LDSBytes / n
		// Reset every victim to its launch-time slice before extending.
		for wi, w := range bi.warps {
			if victim[w] {
				w.LDSShareLo, w.LDSShareHi = wi*share, (wi+1)*share
			}
		}
		first := -1
		for i, w := range bi.warps {
			if victim[w] {
				first = i
				break
			}
		}
		if first < 0 {
			continue
		}
		bi.warps[first].LDSShareLo = 0
		prev := first
		for i := first + 1; i < n; i++ {
			if victim[bi.warps[i]] {
				prev = i
			} else {
				bi.warps[prev].LDSShareHi = (i + 1) * share
			}
		}
	}
}

// Saved reports whether every victim has finished its preemption routine
// (the SM's resources are free).
func (ep *Episode) Saved() bool { return ep.savedCount == len(ep.Victims) }

// Finished reports whether every victim has also completed resuming.
func (ep *Episode) Finished() bool { return ep.resumedCount == len(ep.Victims) }

// PreemptLatencyCycles is the elapsed time from the signal until the SM
// was fully released (paper: "preemption latency").
func (ep *Episode) PreemptLatencyCycles() int64 { return ep.AllSavedCycle - ep.SignalCycle }

// ResumeCycles is the elapsed time from resume start until every warp
// regained its logical progress (paper: "resuming time", including
// re-execution).
func (ep *Episode) ResumeCycles() int64 { return ep.AllResumed - ep.ResumeStart }

// SavedBytes totals the context traffic written during preemption.
func (ep *Episode) SavedBytes() int64 {
	var total int64
	for _, w := range ep.Victims {
		if w.preemptRec != nil {
			total += w.preemptRec.SavedBytes
		}
	}
	return total
}

// resumeFits reports whether ep's victims physically fit back on their
// SM alongside whatever is resident now.
func resumeFits(ep *Episode) bool {
	back := ep.SM.tally(func(w *Warp) bool { return resident(w) || w.episode == ep })
	return back.fits(&ep.SM.Dev.Cfg, footprint{})
}

// CanResume reports whether Resume(ep) would start now: the contexts
// are saved, the SM is not mid-episode, and the victims physically fit
// alongside the SM's residents. A parked job whose SM has since filled
// with other tenants' leftovers (retired warps of partially-finished
// blocks hold their slots until the whole block completes) is not
// resumable until space frees; schedulers use this probe to pick a
// different victim instead of erroring.
func (d *Device) CanResume(ep *Episode) bool {
	if !ep.Saved() || ep.ResumeStart != 0 {
		return false
	}
	if cur := ep.SM.episode; cur != nil && cur != ep && !cur.Finished() && !cur.Parked() {
		return false
	}
	return resumeFits(ep)
}

// Resume re-materializes every preempted victim on its SM and starts the
// dedicated resume routines at the current cycle.
func (d *Device) Resume(ep *Episode) error {
	if !ep.Saved() {
		return fmt.Errorf("sim: resume before all contexts saved (%d/%d)", ep.savedCount, len(ep.Victims))
	}
	if ep.ResumeStart != 0 {
		return fmt.Errorf("sim: episode already resumed")
	}
	// A parked episode resumes onto its original SM; if a newer episode
	// took the SM over and is still draining, saving or resuming, the
	// victims cannot re-materialize yet.
	if cur := ep.SM.episode; cur != nil && cur != ep && !cur.Finished() && !cur.Parked() {
		return fmt.Errorf("sim: SM %d is busy with another episode; cannot resume", ep.SM.ID)
	}
	// The victims' slots must physically fit back alongside whatever now
	// runs on the SM — a newcomer tenant may still be resident.
	if !resumeFits(ep) {
		return fmt.Errorf("sim: SM %d lacks physical headroom to resume %d victims", ep.SM.ID, len(ep.Victims))
	}
	// Re-take ownership: while the victims resume, the SM must stay
	// barred to the launches this episode froze.
	ep.SM.episode = ep
	ep.SM.offline = true
	// Saved() reports completion when the last CtxExit issues, but the
	// context stores may still be in flight; the SM is only physically
	// free at AllSavedCycle. Resuming cannot begin earlier.
	start := max(d.now, ep.AllSavedCycle)
	ep.ResumeStart = start
	if d.rec != nil {
		d.rec.Emit(trace.Event{Name: "resume-start", Cat: trace.CatEpisode, Ph: trace.PhInstant,
			Cycle: start, SM: ep.SM.ID, Warp: -1, Tech: ep.tech})
	}
	// Fault injection on the swapped-out contexts happens at the last
	// moment before they are consumed: corruption models device-memory
	// bit flips accumulated while the warp was preempted, and the
	// save-time checksum is the detector. A mismatch aborts the resume
	// with a structured IntegrityError — the device must then be
	// discarded and the episode degraded to a safe technique; the
	// corrupted context is never silently restored.
	if d.faults != nil {
		for _, w := range ep.Victims {
			if mask, ok := d.faults.CorruptContext(w.ID); ok {
				corruptContext(w.ctx, mask)
				ep.Faults.CorruptedContexts++
			}
		}
		for _, w := range ep.Victims {
			if rec := w.preemptRec; rec.HasChecksum && w.ctx.Checksum() != rec.SavedChecksum {
				ep.Faults.ChecksumMismatches++
				return &IntegrityError{WarpID: w.ID, Stage: "checksum",
					Detail: "saved context does not match its save-time checksum"}
			}
		}
	}
	for _, w := range ep.Victims {
		w.preemptRec.ResumeStart = start
		code, override := ep.rt.ResumeRoutine(w)
		if override != nil {
			w.ctx = override
		}
		w.poison()
		w.State = WarpReady
		w.enterRoutine(ModeResumeRoutine, code)
		w.ReadyAt = start
		clear(w.clock)
		w.lastStoreDone = 0
		d.enqueueReady(w)
	}
	return nil
}
