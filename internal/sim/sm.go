package sim

import (
	"fmt"
	"slices"

	"ctxback/internal/faults"
	"ctxback/internal/isa"
)

// SM is one streaming multiprocessor: warp slots, an issue port, and a
// private LDS pipeline.
type SM struct {
	ID  int
	Dev *Device

	Warps []*Warp // resident warps (any state)

	issueFree int64 // next cycle the issue port is free
	ldsFree   int64 // next cycle the LDS pipeline is free

	// Ready-queue state (see readyq.go): the SM's ready warps split into
	// the port-gated stalled list (round-robin sorted, O(1) at both hot
	// ends) and the hazard-gated future heap. candW/candT/candLast cache
	// the SM's best candidate and its device-heap key; rqIdx is the SM's
	// position in the device-level heap; seqGen hands out scan-position
	// tie-break sequence numbers as warps are appended to Warps.
	stalledHead *Warp
	stalledTail *Warp
	future      warpHeap
	candW       *Warp
	candT       int64
	candLast    int64
	rqIdx       int
	seqGen      int64

	// offline marks an SM being preempted: the dispatcher must not place
	// new victim blocks on it until the episode resolves.
	offline bool

	episode *Episode // active preemption episode, if any

	// laneScratch holds a vector instruction's splatted scalar sources
	// and its result under a partial EXEC (exec.go).
	laneScratch [4]laneVec
}

// footprint is what some warps hold of an SM: warp slots, vector and
// scalar register bytes, and LDS, which a block holds once however many
// of its warps are counted. blocks counts those blocks.
type footprint struct {
	warps, vregBytes, sregBytes, ldsBytes, blocks int
}

// blockNeeds is the footprint of one block of warpsPerBlock warps of prog.
func blockNeeds(prog *isa.Program, warpsPerBlock int) footprint {
	return footprint{
		warps:     warpsPerBlock,
		vregBytes: warpsPerBlock * prog.VRegContextBytes(),
		sregBytes: warpsPerBlock * prog.SRegContextBytes(),
		ldsBytes:  prog.LDSBytes,
		blocks:    1,
	}
}

// fits reports whether need fits on an SM of cfg beside f.
func (f footprint) fits(cfg *Config, need footprint) bool {
	return f.warps+need.warps <= cfg.MaxWarpsPerSM &&
		f.vregBytes+need.vregBytes <= cfg.VRegFileBytes &&
		f.sregBytes+need.sregBytes <= cfg.SRegFileBytes &&
		f.ldsBytes+need.ldsBytes <= cfg.LDSBytesPerSM
}

// resident reports whether w holds its SM's resources: a preempted
// warp's context lives in device memory and its slot is free.
func resident(w *Warp) bool { return w.State != WarpPreempted }

// tally is the footprint of sm's warps that keep accepts, across every
// launch sharing the SM, which a launch's own occupancy limit cannot
// see. A block counts once, with its LDS: dispatch appends a block's
// warps to sm.Warps together and removeBlockWarps drops them together
// (ImportState keeps the exported order), so a block's warps are
// adjacent there.
func (sm *SM) tally(keep func(*Warp) bool) footprint {
	var f footprint
	var last *blockInfo
	for _, w := range sm.Warps {
		if !keep(w) {
			continue
		}
		f.warps++
		f.vregBytes += w.Prog.VRegContextBytes()
		f.sregBytes += w.Prog.SRegContextBytes()
		if bi := w.launch.blocks[w.BlockID]; bi != last {
			last = bi
			f.ldsBytes += w.Prog.LDSBytes
			f.blocks++
		}
	}
	return f
}

// accessLDS pushes bytes through the SM-private LDS pipeline.
func (sm *SM) accessLDS(start int64, bytes int) int64 {
	txStart := max(start, sm.ldsFree)
	dur := int64(float64(bytes)/sm.Dev.Cfg.LDSBytesPerCycle) + 1
	sm.ldsFree = txStart + dur
	sm.Dev.Stats.LDSBytes += int64(bytes)
	return txStart + dur + int64(sm.Dev.Cfg.LDSLatency)
}

// issue executes warp w's next instruction at cycle t and applies timing.
func (sm *SM) issue(w *Warp, t int64) error {
	d := sm.Dev

	// Instrumentation hooks fire before kernel instructions — and before
	// the preemption signal is honored: injected instrumentation precedes
	// the instruction in program order, so a warp about to take a forced
	// checkpoint (e.g. right after a barrier) completes it first. This
	// keeps checkpoint cuts consistent with cross-warp LDS state.
	if w.Mode == ModeKernel && w.launch.hooked && !w.skipHookOnce {
		if code, buf := d.rt.Hook(w, w.PC); len(code) > 0 {
			w.skipHookOnce = true
			w.hookSavedCtx = w.ctx
			w.ctx = buf
			w.enterHook(code)
		}
	}

	// Preemption signals are processed before executing each kernel
	// instruction (paper §III). The signal binds the warps resident at
	// signal time: a warp dispatched onto the SM later (the newcomer the
	// SM is vacated for) is not a victim and must not enter the routine.
	if sm.episode != nil && sm.episode.pending && w.Mode == ModeKernel && !w.barrierWait &&
		sm.episode.isVictim(w) {
		sm.beginPreempt(w, t)
	}

	e := w.fetch()
	if e == nil {
		return fmt.Errorf("sim: warp %d has no instruction to issue", w.ID)
	}
	eff, err := d.execute(w, e)
	if err != nil {
		return err
	}
	in, info := e.In, e.Info

	d.Stats.Instructions++
	if tr := d.tracer; tr != nil && (tr.Filter == nil || tr.Filter(w)) {
		tr.record(TraceEvent{Cycle: t, SM: sm.ID, WarpID: w.ID, Mode: w.Mode, PC: w.PC, Text: in.String()})
	}
	switch w.Mode {
	case ModeKernel:
		d.Stats.KernelInstrs++
	case ModeHook:
		d.Stats.HookInstrs++
	default:
		d.Stats.RoutineInstrs++
	}

	// Timing.
	w.lastIssued = t
	w.candValid = false
	sm.issueFree = t + 1
	w.ReadyAt = t + 1
	done := t + int64(info.IssueCycles)
	switch {
	case eff.memBytes > 0:
		// Context traffic takes the slow switch path only inside real
		// preemption/resume routines; checkpoint stores injected as
		// instrumentation (ModeHook) are ordinary kernel stores on the
		// fast bus.
		ctxPath := info.Class == isa.ClassContext && w.Mode != ModeHook
		complete := d.accessGlobal(t+int64(info.IssueCycles), eff.memBytes, ctxPath, info.HasDst)
		// A memory op writes no implicit register: its stamps are its
		// destination alone.
		if info.HasDst && in.Dst.Valid() {
			w.stamp(e, complete)
		} else {
			w.lastStoreDone = max(w.lastStoreDone, complete)
		}
		if info.Class == isa.ClassContext && w.preemptRec != nil {
			switch w.Mode {
			case ModePreemptRoutine:
				w.preemptRec.SavedBytes += int64(eff.memBytes)
			case ModeResumeRoutine:
				w.preemptRec.RestoredBytes += int64(eff.memBytes)
			}
		}
		done = complete
		// Fault injection on context-transfer stores/loads. Context ops
		// are idempotent (slot rewrites), so a transient fault retries
		// the same routine instruction after a backoff — the traffic
		// above was charged (the transfer happened and failed); the
		// retry re-charges on its next issue. Permanent faults and
		// exhausted retries escalate to a structured error.
		if d.faults != nil && ctxPath {
			save := w.Mode == ModePreemptRoutine
			switch d.faults.CtxTransferFault(w.ID, save) {
			case faults.Transient:
				if w.ctxRetries < d.faults.Config().MaxRetries {
					w.ctxRetries++
					if ep := sm.episode; ep != nil {
						ep.Faults.TransientRetries++
					}
					backoff := int64(d.faults.Config().BackoffCycles) * int64(w.ctxRetries)
					w.ReadyAt = done + backoff
					// Leave the stream position unchanged: the same
					// instruction re-issues after the backoff.
					return nil
				}
				return &TransferFaultError{WarpID: w.ID, SM: sm.ID, Save: save,
					Permanent: false, Attempts: w.ctxRetries + 1}
			case faults.Permanent:
				return &TransferFaultError{WarpID: w.ID, SM: sm.ID, Save: save,
					Permanent: true, Attempts: w.ctxRetries + 1}
			}
			w.ctxRetries = 0
		}
	case eff.ldsBytes > 0:
		complete := sm.accessLDS(t+int64(info.IssueCycles), eff.ldsBytes)
		if info.HasDst && in.Dst.Valid() {
			w.stamp(e, complete)
		} else {
			w.lastStoreDone = max(w.lastStoreDone, complete)
		}
		done = complete
	default:
		w.stamp(e, done)
	}

	// Advance the stream.
	switch w.Mode {
	case ModeKernel:
		w.DynCount++
		w.skipHookOnce = false
		if eff.nextPC >= 0 {
			w.PC = eff.nextPC
		} else {
			w.PC++
		}
	default:
		w.routinePC++
		if w.Mode == ModeHook && w.routinePC >= len(w.routine) {
			// Hook finished: restore the underlying stream.
			w.Mode = w.savedMode
			w.ctx = w.hookSavedCtx
			w.hookSavedCtx = nil
			w.hookDepth--
		}
	}

	// State transitions.
	switch {
	case eff.endpgm:
		w.State = WarpDone
		w.ReadyAt = max(done, w.lastStoreDone)
		w.launch.doneWarps++
		// A retired warp keeps its slots until its block finishes. The
		// warp's own launch is offered the SM first, then, once the
		// block has freed its slots, every other launch in launch
		// order: one that placed no block beside a full SM waits for
		// exactly this.
		freed := sm.onBlockMaybeFinished(w)
		d.dispatch(w.launch)
		if freed {
			for _, l := range d.launches {
				if l != w.launch {
					d.dispatch(l)
				}
			}
		}
	case eff.barrier:
		sm.arriveBarrier(w, max(t+1, w.lastStoreDone))
	case eff.ctxExit:
		saved := max(done, w.lastStoreDone)
		w.State = WarpPreempted
		w.ReadyAt = saved
		if rec := w.preemptRec; rec != nil {
			rec.SavedCycle = saved
		}
		w.episode.onWarpSaved(w, saved)
	case eff.ctxResume:
		w.Mode = ModeKernel
		w.PC = eff.resumePC
		w.DynCount = w.ctx.DynCount
		w.BarrierCount = w.ctx.Barriers
		w.ctx = nil
		// The state is only restored once every outstanding restore load
		// has landed.
		restored := max(done, w.lastStoreDone, slices.Max(w.clock))
		if rec := w.preemptRec; rec != nil {
			rec.RestoreDone = restored
			w.episode.onWarpRestored(w, restored)
		}
		if rec := w.preemptRec; rec != nil && rec.ResumeComplete == 0 && w.DynCount >= rec.DynAtSignal {
			rec.ResumeComplete = restored
			w.episode.onWarpResumed(w, rec.ResumeComplete)
			if err := d.checkResume(w); err != nil {
				return err
			}
		}
	}

	// Progress-based resume completion (checkpoint re-execution).
	if w.Mode == ModeKernel {
		if rec := w.preemptRec; rec != nil && rec.ResumeComplete == 0 && rec.ResumeStart > 0 && w.DynCount >= rec.DynAtSignal {
			rec.ResumeComplete = max(done, w.lastStoreDone)
			w.episode.onWarpResumed(w, rec.ResumeComplete)
			if err := d.checkResume(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// arriveBarrier registers w at its next barrier and releases the block
// when every live peer has arrived or is already logically past it.
func (sm *SM) arriveBarrier(w *Warp, t int64) {
	w.barrierWait = true
	w.State = WarpAtBarrier
	w.ReadyAt = t
	sm.checkBarrier(w, t)
}

func (sm *SM) checkBarrier(w *Warp, t int64) {
	target := w.BarrierCount + 1
	waiting := func(peer *Warp) bool {
		return peer.State != WarpDone && peer.barrierWait && peer.BarrierCount+1 == target
	}
	release := t
	peers := blockPeers(w)
	for _, peer := range peers {
		switch {
		case peer.State == WarpDone:
			// Finished warps no longer participate.
		case peer.BarrierCount >= target:
			// Already past this instance.
		case waiting(peer):
			release = max(release, peer.ReadyAt)
		default:
			return // someone still on the way
		}
	}
	// Release the waiters in block order. A second pass instead of a
	// collected list keeps barrier issue free of allocation.
	for _, peer := range peers {
		if !waiting(peer) {
			continue
		}
		peer.barrierWait = false
		peer.State = WarpReady
		peer.BarrierCount = target
		peer.ReadyAt = release + 1
		sm.Dev.enqueueReady(peer)
	}
}

func blockPeers(w *Warp) []*Warp {
	return w.launch.blocks[w.BlockID].warps
}

// onBlockMaybeFinished frees block bookkeeping when its last warp ends,
// reporting whether it did, and re-checks barriers (a finishing warp may
// unblock waiters).
func (sm *SM) onBlockMaybeFinished(w *Warp) bool {
	bi := w.launch.blocks[w.BlockID]
	bi.done++
	for _, peer := range bi.warps {
		if peer.barrierWait {
			sm.checkBarrier(peer, peer.ReadyAt)
			break
		}
	}
	if bi.done < len(bi.warps) {
		return false
	}
	sm.removeBlockWarps(bi)
	return true
}

func (sm *SM) removeBlockWarps(bi *blockInfo) {
	kept := sm.Warps[:0]
	for _, w := range sm.Warps {
		if w.BlockID == bi.id && w.launch.blocks[bi.id] == bi {
			continue
		}
		kept = append(kept, w)
	}
	sm.Warps = kept
}
