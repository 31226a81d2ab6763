package sim

import (
	"fmt"
	"math"
)

// Event-driven warp scheduler.
//
// Device.Step used to rescan every warp of every SM per issued
// instruction to find the globally earliest issuable one — O(SMs x
// warps) per instruction, so simulation cost grew with *occupancy*
// rather than with work. The structures here index the same selection so
// each issue costs O(1) in the common case and O(log warps) worst case:
//
//   - Per SM, ready warps live in one of two structures keyed by their
//     hazard-resolved candidate issue time (candTime, derived exactly as
//     the scan derived it):
//       stalled — candTime <= sm.issueFree: the warp is gated by the
//                 issue port, its effective issue time IS issueFree, so
//                 only the round-robin order (lastIssued, qseq) matters.
//                 Kept as an intrusive doubly-linked list sorted by that
//                 order: the head pops in O(1), and the two hot inserts
//                 are O(1) — a just-issued warp re-enters with the
//                 largest lastIssued (tail append), and a warp migrating
//                 from future inserts within its short hazard latency of
//                 the tail.
//       future  — candTime >  sm.issueFree: the warp is gated by its
//                 own hazards, ordered by (candTime, lastIssued, qseq)
//                 in a small binary min-heap (it only holds warps inside
//                 their hazard shadow, a handful at saturation).
//     qseq is the warp's position in sm.Warps at append time, making the
//     final tie-break identical to the scan's first-in-scan-order
//     preference.
//   - Device-wide, a heap of the SMs (fixed membership — an SM with no
//     ready warp carries a +inf sentinel key) orders each SM's cached
//     candidate key by (effective issue time, lastIssued, SM id) — again
//     the scan's total order, because the scan visited SMs in id order
//     and only replaced its best on a strict improvement. The key is
//     cached as plain scalars on the SM (candT, candLast) so sifting
//     compares integers instead of re-deriving candidates.
//
// Warps enter or move in the queue only on the events that can change
// their candidate time: instruction issue, barrier release, a preempt
// signal freeing barrier-parked victims, resume re-materialization, and
// block dispatch — all funneled through Device.enqueueReady. issueFree
// contention is resolved lazily by construction: an issue advances
// issueFree (the only event that does), and Device.issueAdvanced then
// migrates the newly port-gated future warps into the stalled set, so no
// per-warp re-keying cascade ever happens.
//
// The retained linear scan (Device.stepScan) is the executable
// specification of this order; UseReferenceScheduler switches a device
// to it and the differential tests pin the two schedulers to
// instruction-identical behavior.

// Warp ready-queue membership markers.
const (
	qheapNone uint8 = iota
	qheapStalled
	qheapFuture
)

// stalledBefore is the round-robin order of the stalled list: least
// recently issued first, scan position (qseq) breaking ties.
func stalledBefore(a, b *Warp) bool {
	if a.lastIssued != b.lastIssued {
		return a.lastIssued < b.lastIssued
	}
	return a.qseq < b.qseq
}

// stalledInsert links w into the sorted stalled list. The walk starts at
// the tail because both hot producers insert at or near it: a re-enqueued
// just-issued warp has the SM's newest lastIssued (pure tail append), and
// a warp migrating out of the future heap issued only its hazard latency
// ago. Cold producers (barrier release, resume, dispatch) may walk
// further, but they are per-episode events, not per-instruction ones.
func (sm *SM) stalledInsert(w *Warp) {
	w.qheap = qheapStalled
	at := sm.stalledTail
	for at != nil && stalledBefore(w, at) {
		at = at.qprev
	}
	if at == nil { // new head
		w.qprev = nil
		w.qnext = sm.stalledHead
		if sm.stalledHead != nil {
			sm.stalledHead.qprev = w
		} else {
			sm.stalledTail = w
		}
		sm.stalledHead = w
		return
	}
	w.qprev = at
	w.qnext = at.qnext
	if at.qnext != nil {
		at.qnext.qprev = w
	} else {
		sm.stalledTail = w
	}
	at.qnext = w
}

// stalledRemove unlinks w from the stalled list in O(1).
func (sm *SM) stalledRemove(w *Warp) {
	if w.qprev != nil {
		w.qprev.qnext = w.qnext
	} else {
		sm.stalledHead = w.qnext
	}
	if w.qnext != nil {
		w.qnext.qprev = w.qprev
	} else {
		sm.stalledTail = w.qprev
	}
	w.qprev, w.qnext = nil, nil
	w.qheap = qheapNone
}

// warpHeap is a binary min-heap over (candTime, lastIssued, qseq) with
// intrusive position tracking (Warp.qidx) so arbitrary entries remove in
// O(log n). It backs the future set only; the stalled set is a list.
type warpHeap struct {
	ws []*Warp
}

func (h *warpHeap) less(a, b *Warp) bool {
	if a.candTime != b.candTime {
		return a.candTime < b.candTime
	}
	if a.lastIssued != b.lastIssued {
		return a.lastIssued < b.lastIssued
	}
	return a.qseq < b.qseq
}

func (h *warpHeap) push(w *Warp) {
	w.qheap = qheapFuture
	w.qidx = len(h.ws)
	h.ws = append(h.ws, w)
	h.up(w.qidx)
}

// popRoot removes and returns the minimum entry.
func (h *warpHeap) popRoot() *Warp { return h.removeAt(0) }

// removeAt deletes the entry at index i and returns it.
func (h *warpHeap) removeAt(i int) *Warp {
	w := h.ws[i]
	last := len(h.ws) - 1
	if i != last {
		h.swap(i, last)
	}
	h.ws[last] = nil
	h.ws = h.ws[:last]
	if i != last {
		h.down(i)
		h.up(i)
	}
	w.qheap = qheapNone
	return w
}

func (h *warpHeap) swap(i, j int) {
	h.ws[i], h.ws[j] = h.ws[j], h.ws[i]
	h.ws[i].qidx = i
	h.ws[j].qidx = j
}

func (h *warpHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.ws[i], h.ws[p]) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *warpHeap) down(i int) {
	n := len(h.ws)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.less(h.ws[r], h.ws[c]) {
			c = r
		}
		if !h.less(h.ws[c], h.ws[i]) {
			return
		}
		h.swap(i, c)
		i = c
	}
}

// refreshCand recomputes the SM's cached candidate and device-heap key.
// A stalled warp issues the moment the port frees (issueFree); a future
// warp issues at its own candTime, which the stalled/future invariant
// guarantees is later than issueFree — so a non-empty stalled set always
// wins. An SM with no ready warp carries +inf so it sinks to the bottom
// of the device heap without leaving it.
func (sm *SM) refreshCand() {
	if w := sm.stalledHead; w != nil {
		sm.candW, sm.candT, sm.candLast = w, sm.issueFree, w.lastIssued
		return
	}
	if len(sm.future.ws) > 0 {
		w := sm.future.ws[0]
		sm.candW, sm.candT, sm.candLast = w, max(sm.issueFree, w.candTime), w.lastIssued
		return
	}
	sm.candW, sm.candT, sm.candLast = nil, math.MaxInt64, math.MaxInt64
}

// readyQueue is the device-level heap over all SMs, keyed by each SM's
// cached candidate under (effective issue time, lastIssued, SM id).
// Membership is fixed — candidate-less SMs sort last via the sentinel
// key — and positions are tracked intrusively (SM.rqIdx) so an SM whose
// candidate changed repositions in O(log SMs).
type readyQueue struct {
	sms []*SM
}

// init registers every SM. All keys start at the +inf sentinel, so the
// id-ordered slice is already a valid heap.
func (q *readyQueue) init(sms []*SM) {
	q.sms = make([]*SM, len(sms))
	for i, sm := range sms {
		q.sms[i] = sm
		sm.rqIdx = i
	}
}

// rqLess compares the cached candidate keys.
func rqLess(a, b *SM) bool {
	if a.candT != b.candT {
		return a.candT < b.candT
	}
	if a.candLast != b.candLast {
		return a.candLast < b.candLast
	}
	return a.ID < b.ID
}

// smChanged re-derives sm's candidate key and repositions it in the
// device heap, skipping the sift when the key is unchanged. Every
// mutation of an SM's ready sets or issueFree is followed by an
// smChanged before the next pop, which keeps the device heap's
// parent/child invariants true whenever a pop consults it.
func (d *Device) smChanged(sm *SM) {
	t, last := sm.candT, sm.candLast
	sm.refreshCand()
	if sm.candT == t && sm.candLast == last {
		return
	}
	d.rq.down(sm.rqIdx)
	d.rq.up(sm.rqIdx)
}

func (q *readyQueue) swap(i, j int) {
	q.sms[i], q.sms[j] = q.sms[j], q.sms[i]
	q.sms[i].rqIdx = i
	q.sms[j].rqIdx = j
}

func (q *readyQueue) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !rqLess(q.sms[i], q.sms[p]) {
			return
		}
		q.swap(i, p)
		i = p
	}
}

func (q *readyQueue) down(i int) {
	n := len(q.sms)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && rqLess(q.sms[r], q.sms[c]) {
			c = r
		}
		if !rqLess(q.sms[c], q.sms[i]) {
			return
		}
		q.swap(i, c)
		i = c
	}
}

// dequeue detaches w from whichever ready structure holds it.
func (sm *SM) dequeue(w *Warp) {
	if w.qheap == qheapStalled {
		sm.stalledRemove(w)
	} else {
		sm.future.removeAt(w.qidx)
	}
}

// enqueueReady (re)indexes a ready warp with a freshly derived
// hazard-resolved candidate time. It is the single entry point for
// every event that can change when a warp may next issue: instruction
// issue, register writeback and memory-pipeline completion (both folded
// into the issuing warp's own re-enqueue, since only a warp's own
// issues touch its registers), barrier release, a preempt signal
// releasing barrier-parked victims, context save/exit and resume, and
// block dispatch. Under the reference scheduler it only invalidates the
// scan's cached candidate time.
func (d *Device) enqueueReady(w *Warp) {
	w.candValid = false
	if d.scanMode {
		return
	}
	sm := w.SM
	if w.qheap != qheapNone {
		sm.dequeue(w)
	}
	in := w.currentInstr()
	if in == nil {
		// The scan surfaced this on the next Step; record it so the
		// event-driven Step does the same.
		if d.qerr == nil {
			d.qerr = fmt.Errorf("sim: warp %d ran off the end of its stream (mode %d)", w.ID, w.Mode)
		}
		d.smChanged(sm)
		return
	}
	w.candTime = max(w.ReadyAt, w.regReadyAt(sm.hazardRegs(in)))
	if w.candTime <= sm.issueFree {
		sm.stalledInsert(w)
	} else {
		sm.future.push(w)
	}
	d.smChanged(sm)
}

// issueAdvanced migrates warps the advancing issue port has caught up
// with (candTime <= issueFree) from the hazard-ordered future heap into
// the round-robin stalled list, then repositions the SM. Called after
// every issue — the only event that moves issueFree. Each warp migrates
// at most once per enqueue (candTime is fixed while queued), so the
// lazy port-contention resolution never cascades.
func (d *Device) issueAdvanced(sm *SM) {
	for len(sm.future.ws) > 0 && sm.future.ws[0].candTime <= sm.issueFree {
		d.migrations++
		sm.stalledInsert(sm.future.popRoot())
	}
	d.smChanged(sm)
}

// NextIssueTime returns the cycle of the globally earliest pending
// issue, peeked in O(1) from the ready-queue head (ok is false when no
// warp is ready: the device is drained, parked, or waiting on external
// events such as Resume). This is the event-driven generalization of
// AdvanceTo's caller-derived fast-forward: Step uses the same head to
// jump the clock over stalls in one step, and RunUntil uses it to
// reject budget overshoot before committing a step.
func (d *Device) NextIssueTime() (cycle int64, ok bool) {
	if d.scanMode {
		best, _, t, err := d.scanBest()
		if best == nil || err != nil {
			return 0, false
		}
		return t, true
	}
	if len(d.rq.sms) == 0 || d.rq.sms[0].candW == nil {
		return 0, false
	}
	return d.rq.sms[0].candT, true
}

// UseReferenceScheduler switches the device to the retained O(SMs x
// warps) linear-scan scheduler the ready queue replaced. Both implement
// the same total issue order and must produce byte-identical
// simulations — the differential tests and the before/after benchmarks
// in BENCH_PR5.json rely on this switch. Call it on a fresh device,
// before stepping.
func (d *Device) UseReferenceScheduler() { d.scanMode = true }
