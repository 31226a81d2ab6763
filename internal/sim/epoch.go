package sim

import (
	"math"
	"sync"

	"ctxback/internal/isa"
)

// Epoch-parallel execution engine.
//
// The serial engine (Device.step) commits one instruction at a time in
// the total order (effective issue time, lastIssued, SM id, qseq). That
// order is what every observable is defined against — clocks, stats,
// episode phase boundaries, memory contents, golden outputs — so any
// parallel engine must reproduce it byte-for-byte. The key fact that
// makes intra-device parallelism possible anyway: most pops are *local*
// to their SM. An ALU, branch, LDS, nop, or barrier pop reads and
// writes only its own warp and SM state (registers, PC, issueFree,
// ldsFree, block-private LDS, same-SM barrier groups) — never the
// shared clock, the memory bus, or another SM. Two local pops on
// different SMs therefore commute: committing them in either order
// produces identical device state, because the serial commit of one
// reads nothing the other writes.
//
// The engine exploits this by alternating two regimes:
//
//   - Boundary steps. Any pop that touches shared state — global
//     memory or atomics (memFree/ctxFree arbitration, Stats.GlobalBytes
//     accumulation order), context-path traffic, routine/hook streams,
//     preemption entry, endpgm (launch retirement + dispatch) — is
//     committed by the ordinary serial d.step, one at a time, in
//     exactly the serial total order. Shared-resource arbitration is
//     thus trivially identical to the serial engine's.
//
//   - Parallel phases. When the queue head is a local pop strictly
//     below the epoch horizon (below), the SMs are partitioned
//     round-robin across shard goroutines and each shard drains its
//     SMs' local pops independently up to the horizon. Within one SM
//     the drain follows the SM's own candidate order — which is the
//     serial order restricted to that SM — and across SMs the commits
//     interleave arbitrarily, which is safe precisely because every
//     drained pop is local. The merge then restores the global
//     invariants: d.now becomes the max committed issue time (the
//     serial engine's clock is the running max of committed keys, and
//     max is order-independent), shard-private stats sum into
//     Device.Stats (sums commute), and the device heap is rebuilt from
//     the SMs' refreshed candidates.
//
// The epoch horizon H is what keeps cond-observable and cross-SM
// events out of phases. A phase may only drain pops with key < H, where
// H lower-bounds the issue time of every pop that could either (a) be
// non-local, reintroducing shared state, or (b) flip a RunUntil
// boundary condition or inject work onto another SM. smInjectBound
// derives the per-SM bound from the ready queue (plus barrier-parked
// warps, which can rejoin mid-phase): routine/hook-mode warps bound at
// their effective issue time; replaying warps (checkpoint re-execution)
// at effTime + remaining instructions to their signal point; kernel
// warps at effTime + (static CFG distance to the nearest s_endpgm).
// The endpgm bound applies while undispatched blocks exist (an endpgm
// frees a slot and injects warps onto an arbitrary SM) and, regardless
// of dispatch state, whenever the run condition could observe a single
// launch completing while other work continues (the scheduler watches
// per-job completions this way). Only a completion-blind condition —
// nil, or Device.Run's all-launches-done form, which first holds after
// the globally final pop — lets fully-dispatched kernel warps run
// unbounded. Plain global-memory pops do NOT bound H — they stay serial
// (non-local), but local pops on other SMs commute with them, so they
// cap nothing.
//
// Determinism: every value the simulation can observe is a function of
// the committed pop *set* and the per-pop state transitions, never of
// the goroutine interleaving. Phases commit exactly the set of local
// pops with key < min(H, timeBound) — a set fixed by the device state
// at phase entry — and each pop's effects are confined to its own SM.
// The only cross-shard writes are the per-shard accumulators, merged by
// commutative folds (max for the clock, sums for stats/migrations, the
// minimum step key for errors). The heap rebuild produces an array
// layout that may depend on shard count, but pops consult only the
// unique minimum of a strict total order, so layout is unobservable.
// Hence shards=N output == shards=1 output, bit for bit; the lockstep
// differential tests in internal/harness pin this across every kernel
// and technique, through full preemption episodes.

// epochShard accumulates one shard's phase results. Padded so adjacent
// shards' hot counters never share a cache line.
type epochShard struct {
	stats      DeviceStats
	migrations int64
	maxKey     int64 // largest committed issue time (MinInt64: none)
	err        error
	errKey     popKey
	_          [64]byte
}

// popKey is a position in the serial total order.
type popKey struct {
	t    int64
	last int64
	sm   int
	qseq int64
}

func keyLess(a, b popKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.last != b.last {
		return a.last < b.last
	}
	if a.sm != b.sm {
		return a.sm < b.sm
	}
	return a.qseq < b.qseq
}

// localStep reports whether popping w (the head candidate of sm) is
// local: its commit reads and writes nothing outside sm and w's block.
// Everything else — routine/hook streams, preemption entry, replay
// completion, global memory, atomics, context ops, endpgm — goes
// through the serial boundary path.
func (d *Device) localStep(sm *SM, w *Warp) bool {
	if sm.episode != nil && sm.episode.pending {
		return false // next kernel issue enters the preemption routine
	}
	if w.Mode != ModeKernel {
		return false
	}
	if replaying(w) {
		return false // replaying: any pop may flip resume completion
	}
	if w.launch.hooked && !w.skipHookOnce {
		// A hook might inject a routine stream or mutate technique
		// state; without a predicate, assume every site might.
		if d.hookPred == nil || d.hookPred.HookAt(w, w.PC) {
			return false
		}
	}
	in := w.currentInstr()
	if in == nil {
		return false // dry stream: let the serial path surface the error
	}
	switch in.Op.Info().Class {
	case isa.ClassScalarALU, isa.ClassVectorALU, isa.ClassBranch, isa.ClassLDSMem:
		return true
	case isa.ClassSync:
		// Barriers only touch the block's warps, all resident on this
		// SM; endpgm retires the launch and may dispatch fresh blocks
		// anywhere, so it is always a boundary event.
		return in.Op != isa.SEndpgm
	}
	return false
}

// replaying reports whether w is between resume start and regaining its
// logical progress: its pops may flip Episode.Finished.
func replaying(w *Warp) bool {
	rec := w.preemptRec
	return rec != nil && rec.ResumeStart > 0 && rec.ResumeComplete == 0
}

// replayGap returns a lower bound on the number of further pops a
// replaying w needs before the flip pop itself — 0 means the very next
// pop may complete the replay.
func replayGap(w *Warp) int64 {
	if gap := w.preemptRec.DynAtSignal - w.DynCount - 1; gap > 0 {
		return gap
	}
	return 0
}

// distUnreachable marks PCs from which no s_endpgm is reachable in the
// static CFG: a warp there can never retire, hence never inject.
const distUnreachable = math.MaxInt32

// distToEnd returns a static lower bound on the number of instructions
// a kernel-mode warp at pc must still issue before it can retire
// s_endpgm (0 at the endpgm itself). Derived once per program by a
// reverse-CFG BFS and cached; dynamic paths (loops, barrier waits) are
// only ever longer than the static shortest path, so the bound is safe.
func (d *Device) distToEnd(p *isa.Program, pc int) int64 {
	dists, ok := d.distCache[p]
	if !ok {
		dists = computeDistToEnd(p)
		if d.distCache == nil {
			d.distCache = make(map[*isa.Program][]int32)
		}
		d.distCache[p] = dists
	}
	if pc < 0 || pc >= len(dists) {
		return 0 // dry/invalid stream: force the tightest bound
	}
	return int64(dists[pc])
}

// computeDistToEnd runs the reverse-CFG BFS. Successors: unconditional
// branches go to Target; conditional branches to Target or fall
// through; everything else falls through. All edges have weight 1
// (instructions issued), so BFS order is distance order.
func computeDistToEnd(p *isa.Program) []int32 {
	n := p.Len()
	dists := make([]int32, n)
	for i := range dists {
		dists[i] = distUnreachable
	}
	// Predecessor lists from the successor relation.
	preds := make([][]int32, n)
	addEdge := func(from, to int) {
		if to >= 0 && to < n {
			preds[to] = append(preds[to], int32(from))
		}
	}
	var queue []int32
	for pc := 0; pc < n; pc++ {
		in := p.At(pc)
		if in.Op == isa.SEndpgm {
			dists[pc] = 0
			queue = append(queue, int32(pc))
			continue
		}
		if in.Op.Info().Class == isa.ClassBranch {
			addEdge(pc, in.Target)
			if !in.IsUnconditionalBranch() {
				addEdge(pc, pc+1)
			}
			continue
		}
		addEdge(pc, pc+1)
	}
	for len(queue) > 0 {
		pc := queue[0]
		queue = queue[1:]
		nd := dists[pc] + 1
		for _, pred := range preds[pc] {
			if dists[pred] > nd {
				dists[pred] = nd
				queue = append(queue, pred)
			}
		}
	}
	return dists
}

// smInjectBound lower-bounds the issue time of the earliest pop on sm
// that could inject work onto another SM, flip a boundary condition, or
// otherwise require serial commit ordering relative to *other SMs'*
// local pops. Phases must stop strictly below the min of these bounds.
func (d *Device) smInjectBound(sm *SM, fenceEndpgm bool) int64 {
	if sm.episode != nil && sm.episode.pending {
		// The SM's very next kernel issue enters the preemption
		// routine; nothing on this SM may drain in parallel.
		return sm.candT
	}
	bound := int64(math.MaxInt64)
	consider := func(w *Warp, eff int64) {
		var v int64
		switch {
		case w.Mode != ModeKernel:
			// Routine/hook pops touch the context path, episode
			// counters, or technique state from the first instruction.
			v = eff
		case replaying(w):
			// A replaying warp flips Episode.Finished when its k-th
			// further kernel pop reaches the signal point; each own pop
			// advances the port by >= 1 cycle. Gap 0 — the very next pop
			// may flip — bounds at the warp's own issue time.
			v = eff + replayGap(w)
		case d.blocksPending > 0 || fenceEndpgm:
			// While blocks await dispatch, an endpgm frees a slot and
			// injects warps onto an arbitrary SM at its commit time. And
			// whenever the run condition could observe a single launch
			// completing (fenceEndpgm), the endpgm itself is the stopping
			// point: no local pop anywhere may outrun it.
			dist := d.distToEnd(w.Prog, w.PC)
			if dist == distUnreachable {
				return
			}
			v = eff + dist
		default:
			// Fully dispatched under a completion-blind condition: this
			// warp's endpgm only decrements doneWarps, and the
			// whole-device completion flip needs no bound — when the
			// last endpgm commits there are no pops left anywhere to
			// mis-drain past it.
			return
		}
		if v < bound {
			bound = v
		}
	}
	for w := sm.stalledHead; w != nil; w = w.qnext {
		consider(w, max(sm.issueFree, w.candTime))
	}
	for _, w := range sm.future.ws {
		consider(w, max(sm.issueFree, w.candTime))
	}
	// Barrier-parked warps sit outside the ready queue but rejoin it the
	// moment a same-SM pop releases their barrier — which cannot happen
	// before the SM's current candidate commits, plus one cycle for the
	// released warp's own first issue.
	if sm.candW != nil {
		for _, w := range sm.Warps {
			if w.State == WarpAtBarrier {
				consider(w, sm.candT+1)
			}
		}
	}
	return bound
}

// horizon returns the epoch horizon: phases may only drain local pops
// with key strictly below it.
func (d *Device) horizon(fenceEndpgm bool) int64 {
	h := int64(math.MaxInt64)
	for _, sm := range d.SMs {
		if v := d.smInjectBound(sm, fenceEndpgm); v < h {
			h = v
		}
	}
	return h
}

// runEpochs is the sharded RunUntilBounded body. cond, timeBound and
// limit have RunUntilBounded's semantics; the serial total order is
// reproduced exactly (see the package comment above).
//
// On error the returned error is the one the serial engine would have
// returned (the failing pop with the smallest step key), but — unlike
// the serial engine — shards may already have committed local pops with
// larger keys. Device state after an error is not intended for further
// stepping either way.
func (d *Device) runEpochs(cond func() bool, timeBound, limit int64, fenceEndpgm bool) error {
	for {
		if cond != nil && cond() {
			return nil
		}
		if d.qerr != nil {
			return d.qerr
		}
		head := d.rq.sms[0]
		if head.candW == nil {
			return nil
		}
		if head.candT > limit {
			return &BudgetError{Now: d.now, Next: head.candT, Limit: limit}
		}
		// The horizon scan is O(SMs × warps), and a head that cannot
		// drain locally commits serially whatever the horizon is, so
		// only a local head computes it.
		local := head.candT < timeBound && d.localStep(head, head.candW)
		stop := timeBound
		if local {
			stop = min(stop, d.horizon(fenceEndpgm))
		}
		if !local || head.candT >= stop {
			// Boundary step: commit the head serially. This is also how
			// the clock crosses timeBound — the crossing pop commits
			// alone, so cond sees the clock exactly where the serial
			// engine would have stopped it.
			if _, err := d.step(limit); err != nil {
				return err
			}
			continue
		}
		if err := d.phase(stop, limit); err != nil {
			return err
		}
	}
}

// phase drains every SM's run of local pops with key < stop (and <=
// limit) across the configured shards, then merges.
func (d *Device) phase(stop, limit int64) error {
	n := d.shards
	if n > len(d.SMs) {
		n = len(d.SMs)
	}
	if len(d.epochShards) < n {
		d.epochShards = make([]epochShard, n)
	}
	shards := d.epochShards[:n]
	for i := range shards {
		shards[i] = epochShard{maxKey: math.MinInt64}
	}
	// SM k belongs to shard k mod n; its issue path accumulates into
	// that shard's private stats for the duration of the phase.
	for _, sm := range d.SMs {
		sm.stats = &shards[sm.ID%n].stats
	}
	d.inPhase = true
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			d.runShard(&shards[si], si, n, stop, limit)
		}(i)
	}
	d.runShard(&shards[0], 0, n, stop, limit)
	wg.Wait()
	d.inPhase = false

	// Merge: commutative folds only, so the result is independent of
	// how the shards interleaved.
	var firstErr error
	var firstKey popKey
	for _, sm := range d.SMs {
		sm.stats = &d.Stats
	}
	for i := range shards {
		sh := &shards[i]
		d.Stats.Instructions += sh.stats.Instructions
		d.Stats.KernelInstrs += sh.stats.KernelInstrs
		d.Stats.RoutineInstrs += sh.stats.RoutineInstrs
		d.Stats.HookInstrs += sh.stats.HookInstrs
		d.Stats.GlobalBytes += sh.stats.GlobalBytes
		d.Stats.LDSBytes += sh.stats.LDSBytes
		d.migrations += sh.migrations
		if sh.maxKey > d.now {
			d.now = sh.maxKey
		}
		if sh.err != nil && (firstErr == nil || keyLess(sh.errKey, firstKey)) {
			firstErr, firstKey = sh.err, sh.errKey
		}
	}
	d.Stats.Cycles = d.now
	d.rq.rebuild()
	return firstErr
}

// runShard drains the shard's SMs (round-robin partition by SM id).
func (d *Device) runShard(sh *epochShard, idx, n int, stop, limit int64) {
	for smi := idx; smi < len(d.SMs); smi += n {
		d.drainSM(sh, d.SMs[smi], stop, limit)
		if sh.err != nil {
			return
		}
	}
}

// drainSM commits sm's run of local pops with key < stop. Within one SM
// the candidate order is exactly the serial order restricted to the SM,
// so each commit replays the serial step body: dequeue, issue, migrate
// port-caught future warps, re-enqueue the issuer. Only the shared
// pieces differ — stats land in the shard accumulator (sm.stats was
// repointed by phase), the clock is folded at the merge via maxKey, and
// the device heap is left alone until the merge rebuild.
func (d *Device) drainSM(sh *epochShard, sm *SM, stop, limit int64) {
	for {
		w, t := sm.candW, sm.candT
		if w == nil || t >= stop || t > limit || !d.localStep(sm, w) {
			return
		}
		key := popKey{t: t, last: w.lastIssued, sm: sm.ID, qseq: w.qseq}
		sm.dequeue(w)
		if err := sm.issue(w, t); err != nil {
			sh.err, sh.errKey = err, key
			return
		}
		sm.issueAdvancedLocal(sh)
		if w.State == WarpReady {
			d.enqueueReady(w)
		}
		if t > sh.maxKey {
			sh.maxKey = t
		}
		if sm.phaseErr != nil {
			// A same-SM re-enqueue (barrier release or the issuer
			// itself) found a dry stream; surface it at this pop's key,
			// where the serial engine's next Step would have found it.
			sh.err, sh.errKey = sm.phaseErr, key
			sm.phaseErr = nil
			return
		}
	}
}
