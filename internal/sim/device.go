package sim

import (
	"fmt"
	"math"
	"slices"

	"ctxback/internal/faults"
	"ctxback/internal/isa"
	"ctxback/internal/trace"
)

// Runtime is the whole contract between a preemption technique and the
// device; internal/preempt provides implementations. Every stream it
// hands the device is a decoded table (isa.DecodeStream) for a warp of
// the warp's program, shared read-only: the device only reads it.
type Runtime interface {
	Name() string
	// PhaseNames labels the four canonical episode phases in the
	// technique's vocabulary (e.g. CTXBack's replay is a flashback).
	PhaseNames() trace.PhaseNames
	// Instruments reports whether Hook may return instrumentation or
	// change any state for a warp of prog while the runtime is attached.
	// When it is false, Hook returns nothing and changes nothing for any
	// warp of prog, at any time, so the device calls Hook only for
	// launches it instruments and the harness forks episodes of
	// techniques that never instrument a kernel from its golden run. It
	// must be pure and safe to call concurrently.
	Instruments(prog *isa.Program) bool
	// PreemptRoutine returns the dedicated preemption routine for w
	// (queried by w.PC, per paper §IV-B). Executed in ModePreemptRoutine
	// against a fresh context buffer; must end with CtxExit.
	PreemptRoutine(w *Warp) []isa.Decoded
	// ResumeRoutine returns the dedicated resume routine. ctxOverride,
	// when non-nil, replaces the warp's context buffer for the routine
	// (checkpoint-based techniques restore from their own snapshots).
	// Must end with CtxResume.
	ResumeRoutine(w *Warp) (code []isa.Decoded, ctxOverride *SavedContext)
	// Hook returns instrumentation to execute immediately before the
	// kernel instruction at pc (runtime overhead: checkpoint stores, OSRB
	// copies). buf, when non-nil, is attached as the context buffer while
	// the hook runs. Return nil for no instrumentation.
	Hook(w *Warp, pc int) (code []isa.Decoded, buf *SavedContext)
}

// instruments reports whether the attached runtime may instrument prog.
func (d *Device) instruments(prog *isa.Program) bool {
	return d.rt != nil && d.rt.Instruments(prog)
}

// Device is the simulated GPU.
type Device struct {
	Cfg      Config
	Mem      *Memory
	SMs      []*SM
	now      int64
	memFree  int64 // device-memory bus next-free cycle
	ctxFree  int64 // context save/restore path next-free cycle
	launches []*Launch
	rt       Runtime // attached technique (Hook instrumentation)
	tracer   *Tracer
	rec      *trace.Recorder // structured-event recorder (nil: tracing off)
	Stats    DeviceStats

	// faults is the attached fault injector (nil: every fault path is
	// skipped, so disabled runs behave and cost exactly as before).
	faults *faults.Injector
	// resumeChecker is the installed resume-integrity oracle (nil: off).
	resumeChecker func(w *Warp) error

	// rq indexes every ready warp by hazard-resolved candidate issue
	// time (see readyq.go); Step pops the global minimum instead of
	// rescanning the device.
	rq readyQueue
	// scanMode selects the retained linear-scan reference scheduler
	// (UseReferenceScheduler); the ready queue is then bypassed.
	scanMode bool
	// qerr holds a deferred scheduling error (a ready warp whose stream
	// ran dry at enqueue time); surfaced by the next Step, matching when
	// the scan would have discovered it.
	qerr error
	// migrations counts future->stalled ready-queue migrations
	// (scheduler cost accounting; see issueAdvanced).
	migrations int64

	// regFree holds the register files of removed launches for Launch
	// to reuse (RemoveLaunch).
	regFree regPool
}

// DeviceStats aggregates device-wide counters.
type DeviceStats struct {
	Instructions  int64 // all executed instructions (any mode)
	KernelInstrs  int64 // kernel-mode retirements
	RoutineInstrs int64
	HookInstrs    int64
	GlobalBytes   int64
	LDSBytes      int64
	Cycles        int64
}

// NewDevice builds a device from cfg.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		Cfg: cfg,
		Mem: NewMemory(cfg.GlobalMemBytes / 4),
		SMs: make([]*SM, 0, cfg.NumSMs),
	}
	// One slab backs every SM's future heap at full capacity so the hot
	// path never grows a heap slice (the three-index slices keep each
	// SM's region from appending into its neighbor's).
	slab := make([]*Warp, cfg.NumSMs*cfg.MaxWarpsPerSM)
	for i := 0; i < cfg.NumSMs; i++ {
		sm := &SM{ID: i, Dev: d, candT: math.MaxInt64, candLast: math.MaxInt64}
		lo, hi := i*cfg.MaxWarpsPerSM, (i+1)*cfg.MaxWarpsPerSM
		sm.future.ws = slab[lo:lo:hi]
		d.SMs = append(d.SMs, sm)
	}
	d.rq.init(d.SMs)
	return d, nil
}

// Now returns the current simulated cycle.
func (d *Device) Now() int64 { return d.now }

// SetShards does nothing: n is ignored, and every device runs its one
// serial loop.
//
// Deprecated: the epoch-parallel engine it configured is gone. The
// benchmark's sharded-episode workload still calls it; the benchmark
// change that redefines that workload removes it.
func (d *Device) SetShards(n int) {}

// AttachRecorder installs a structured-event recorder; episode, warp and
// memory-pipeline events are emitted into it with simulated-cycle
// timestamps. nil detaches. Recording is observation only — it never
// alters simulated timing, so traced and untraced runs produce identical
// results.
func (d *Device) AttachRecorder(r *trace.Recorder) { d.rec = r }

// Recorder returns the attached structured-event recorder (nil when
// tracing is off).
func (d *Device) Recorder() *trace.Recorder { return d.rec }

// Micros returns the current simulated time in microseconds.
func (d *Device) Micros() float64 { return d.Cfg.CyclesToMicros(d.now) }

// accessGlobal pushes bytes through the shared device-memory bus starting
// no earlier than start; returns the cycle the data lands. Context
// save/restore traffic (ctxPath) additionally serializes through the
// slow switch-routine path, so its completion is gated by whichever of
// the two resources frees later — switch time tracks context size but
// degrades under bus contention, as the paper observes.
func (d *Device) accessGlobal(start int64, bytes int, ctxPath, isLoad bool) int64 {
	if d.faults != nil {
		// Injected pipeline stalls delay the transaction before it
		// contends for the bus.
		start += d.faults.Stall()
	}
	busDur := int64(math.Ceil(float64(bytes) / d.Cfg.MemBytesPerCycle))
	if busDur < 1 {
		busDur = 1
	}
	d.Stats.GlobalBytes += int64(bytes)
	if !ctxPath {
		txStart := max(start, d.memFree)
		d.memFree = txStart + busDur
		return txStart + busDur + int64(d.Cfg.MemLatency)
	}
	// Context traffic serializes through BOTH resources: it must win bus
	// slots against the other SMs' kernel traffic AND squeeze through the
	// slow switch-routine path — so a busy device slows context switches,
	// exactly the contention effect §V-A reports.
	rate := d.Cfg.CtxBytesPerCycle
	if isLoad && d.Cfg.CtxRestoreFactor > 0 {
		rate *= d.Cfg.CtxRestoreFactor
	}
	ctxDur := int64(math.Ceil(float64(bytes) / rate))
	s := max(start, d.memFree, d.ctxFree)
	d.memFree = s + busDur
	d.ctxFree = s + ctxDur
	complete := s + max(busDur, ctxDur) + int64(d.Cfg.MemLatency)
	if d.rec != nil {
		name := "ctx-save"
		if isLoad {
			name = "ctx-restore"
		}
		d.rec.Emit(trace.Event{Name: name, Cat: trace.CatMem, Ph: trace.PhComplete,
			Cycle: s, Dur: complete - s, SM: -1, Warp: -1, Bytes: int64(bytes)})
	}
	return complete
}

// LaunchSpec configures a kernel launch.
type LaunchSpec struct {
	Prog          *isa.Program
	NumBlocks     int
	WarpsPerBlock int
	// Setup initializes each warp's registers before it starts (ABI:
	// kernels read their arguments from scalar registers).
	Setup func(w *Warp)
	// SMFilter restricts dispatch to the listed SMs (nil: all).
	SMFilter []int
}

// Launch tracks one kernel grid through execution.
type Launch struct {
	Spec      LaunchSpec
	Dev       *Device
	Occ       Occupancy
	Warps     []*Warp
	blocks    []*blockInfo
	nextBlock int
	doneWarps int
	// hooked: the attached runtime may instrument the launch's program
	// (Runtime.Instruments), decided at launch and on every
	// AttachRuntime. Kernel issue calls Hook only for hooked launches.
	hooked bool
	// table is the program's decoded table (isa.Program.Table), which
	// kernel-mode fetch reads by PC.
	table *isa.Table
}

type blockInfo struct {
	id     int
	lds    *LDSBlock
	warps  []*Warp
	sm     *SM
	placed bool
	done   int
}

// Launch dispatches a grid. Blocks are placed greedily on allowed SMs up
// to occupancy; remaining blocks wait for finished blocks to free slots.
func (d *Device) Launch(spec LaunchSpec) (*Launch, error) {
	if spec.NumBlocks <= 0 || spec.WarpsPerBlock <= 0 {
		return nil, fmt.Errorf("sim: launch needs positive grid dimensions")
	}
	tab := spec.Prog.Table()
	if tab.Err != nil {
		return nil, fmt.Errorf("sim: %w", tab.Err)
	}
	occ, err := d.Cfg.Occupancy(spec.Prog, spec.WarpsPerBlock)
	if err != nil {
		return nil, err
	}
	l := &Launch{Spec: spec, Dev: d, Occ: occ, table: tab,
		Warps:  make([]*Warp, 0, spec.NumBlocks*spec.WarpsPerBlock),
		blocks: make([]*blockInfo, 0, spec.NumBlocks),
		hooked: d.instruments(spec.Prog),
	}
	ldsWords := spec.Prog.LDSBytes / 4
	shareBytes := 0
	if spec.Prog.LDSBytes > 0 {
		shareBytes = spec.Prog.LDSBytes / spec.WarpsPerBlock
	}
	wid := 0
	for b := 0; b < spec.NumBlocks; b++ {
		bi := &blockInfo{id: b, lds: &LDSBlock{Data: make([]uint32, ldsWords), BlockID: b},
			warps: make([]*Warp, 0, spec.WarpsPerBlock)}
		for wi := 0; wi < spec.WarpsPerBlock; wi++ {
			w := newWarp(wid, b, wi, spec.Prog, bi.lds, d.regFree)
			w.LDSShareLo = wi * shareBytes
			w.LDSShareHi = (wi + 1) * shareBytes
			w.launch = l
			if spec.Setup != nil {
				spec.Setup(w)
			}
			bi.warps = append(bi.warps, w)
			l.Warps = append(l.Warps, w)
			wid++
		}
		l.blocks = append(l.blocks, bi)
	}
	d.launches = append(d.launches, l)
	d.dispatch(l)
	return l, nil
}

func (l *Launch) allowedSM(sm *SM) bool {
	if l.Spec.SMFilter == nil {
		return true
	}
	for _, id := range l.Spec.SMFilter {
		if id == sm.ID {
			return true
		}
	}
	return false
}

// CanHostBlock reports whether SM sm currently has physical headroom
// for one block of prog. The scheduler probes it before starting a job
// on an idle SM: residue from other tenants' partially-finished parked
// blocks can crowd an SM so badly that a fresh grid would place zero
// blocks, leaving a launch with nothing resident and no event to ever
// make progress.
func (d *Device) CanHostBlock(sm int, prog *isa.Program, warpsPerBlock int) bool {
	if sm < 0 || sm >= len(d.SMs) {
		return false
	}
	return d.SMs[sm].tally(resident).fits(&d.Cfg, blockNeeds(prog, warpsPerBlock))
}

// CanDisplace reports whether SM sm, once launch victim's live warps
// have saved their contexts, will have room for one block of prog. The
// tally mirrors the post-save state exactly: the victim's live
// (non-done) warps vanish from the register files and warp slots, and a
// victim block's LDS frees only when no other resident warp — typically
// an already-done peer — still pins it.
func (d *Device) CanDisplace(sm int, victim *Launch, prog *isa.Program, warpsPerBlock int) bool {
	if sm < 0 || sm >= len(d.SMs) {
		return false
	}
	left := d.SMs[sm].tally(func(w *Warp) bool {
		return resident(w) && (w.launch != victim || w.State == WarpDone)
	})
	return left.fits(&d.Cfg, blockNeeds(prog, warpsPerBlock))
}

// swappedOut reports whether any of the launch's warps currently sits
// in a saved context. A preempted kernel's block dispatcher is
// suspended with it: growing the grid while the launch is swapped out
// would put its fresh warps live on an SM another tenant now owns, and
// the next preemption sweep there would fold two launches' warps into
// one episode — an episode the per-job scheduler above can only
// attribute to one of them, wedging the other forever.
func (l *Launch) swappedOut() bool {
	for _, w := range l.Warps {
		if w.State == WarpPreempted {
			return true
		}
	}
	return false
}

// dispatch places as many pending blocks as fit. A block needs both a
// free per-launch occupancy slot and physical headroom (warp slots,
// register files, LDS) alongside every other tenant resident on the SM:
// a newcomer cannot land on an SM whose victim warps have not yet saved
// their contexts. A swapped-out launch places nothing — its pending
// blocks wait for the resume-complete redispatch.
func (d *Device) dispatch(l *Launch) {
	if l.nextBlock == len(l.blocks) || l.swappedOut() {
		return
	}
	need := blockNeeds(l.Spec.Prog, l.Spec.WarpsPerBlock)
	own := func(w *Warp) bool { return w.launch == l && resident(w) }
	for l.nextBlock < len(l.blocks) {
		bi := l.blocks[l.nextBlock]
		var target *SM
		targetWarps := 0
		for _, sm := range d.SMs {
			if !l.allowedSM(sm) {
				continue
			}
			if sm.offline && sm.episode != nil && (sm.episode.frozen[l] || !sm.episode.Saved()) {
				// Frozen launches stay barred until the episode finishes.
				// EVERY launch — including the newcomer the SM is being
				// vacated for — must wait for the last context store: a
				// block placed mid-save would issue warps while the
				// preempt signal is still pending and they would be swept
				// into a preemption episode they are no victim of, saved,
				// and never resumed.
				continue
			}
			if sm.tally(own).blocks >= l.Occ.BlocksPerSM {
				continue
			}
			held := sm.tally(resident)
			if !held.fits(&d.Cfg, need) {
				continue
			}
			if target == nil || held.warps < targetWarps {
				target, targetWarps = sm, held.warps
			}
		}
		if target == nil {
			return
		}
		bi.sm = target
		bi.placed = true
		for _, w := range bi.warps {
			w.SM = target
			w.ReadyAt = d.now
			// qseq freezes the warp's scan position: sm.Warps only ever
			// appends (removals keep relative order), so append order is
			// the reference scheduler's within-SM tie-break.
			w.qseq = target.seqGen
			target.seqGen++
			target.Warps = append(target.Warps, w)
			d.enqueueReady(w)
		}
		l.nextBlock++
	}
}

// Done reports whether every warp of the launch has retired s_endpgm.
func (l *Launch) Done() bool { return l.doneWarps == len(l.Warps) }

// Step executes the single globally-earliest issuable instruction.
// Returns false when nothing can make progress (all done, or everything
// is blocked/preempted).
func (d *Device) Step() (bool, error) { return d.step(math.MaxInt64) }

// step is Step with a budget limit: when the earliest pending issue
// lies beyond limit, it returns a *BudgetError without committing the
// step (the clock and all warp state are untouched), so RunUntil can
// reject overshoot before it happens instead of reporting it after.
func (d *Device) step(limit int64) (bool, error) {
	if d.scanMode {
		return d.stepScan(limit)
	}
	if d.qerr != nil {
		return false, d.qerr
	}
	// The queue head is the globally earliest issuable warp under the
	// reference scan's (issue time, lastIssued, scan position) order.
	sm := d.rq.sms[0]
	best, bestT := sm.candW, sm.candT
	if best == nil {
		return false, nil
	}
	if bestT > limit {
		return false, &BudgetError{Now: d.now, Next: bestT, Limit: limit}
	}
	sm.dequeue(best)
	if err := sm.issue(best, bestT); err != nil {
		return false, err
	}
	// The issue advanced sm.issueFree (and may have enqueued warps on
	// any SM through barrier releases, dispatch, or episode completion —
	// each of those fixed its own SM's heap position as it happened).
	d.issueAdvanced(sm)
	if best.State == WarpReady {
		d.enqueueReady(best)
	}
	// Stall fast-forward: issuing at the queue head's time jumps the
	// clock over any stall in this one step.
	if bestT > d.now {
		d.now = bestT
	}
	d.Stats.Cycles = d.now
	return true, nil
}

// scanBest is the linear-scan warp selection the ready queue replaced,
// kept verbatim as the reference scheduler's executable specification
// of the issue order (stepScan) and cross-checked against the queue by
// the differential tests.
func (d *Device) scanBest() (best *Warp, bestSM *SM, bestT int64, err error) {
	bestT = int64(math.MaxInt64)
	for _, sm := range d.SMs {
		for _, w := range sm.Warps {
			if w.State != WarpReady {
				continue
			}
			// The hazard-resolved issue time only changes when the warp
			// itself advances, so it is cached between selections.
			if !w.candValid {
				e := w.fetch()
				if e == nil {
					return nil, nil, 0, fmt.Errorf("sim: warp %d ran off the end of its stream (mode %d)", w.ID, w.Mode)
				}
				w.candTime = max(w.ReadyAt, w.hazardsReadyAt(e))
				w.candValid = true
			}
			t := max(sm.issueFree, w.candTime)
			// Round-robin among same-cycle candidates: prefer the warp
			// that issued least recently so no warp starves.
			if t < bestT || (t == bestT && best != nil && w.lastIssued < best.lastIssued) {
				bestT, best, bestSM = t, w, sm
			}
		}
	}
	return best, bestSM, bestT, nil
}

// stepScan is Step under the reference scheduler (UseReferenceScheduler).
func (d *Device) stepScan(limit int64) (bool, error) {
	best, bestSM, bestT, err := d.scanBest()
	if err != nil {
		return false, err
	}
	if best == nil {
		return false, nil
	}
	if bestT > limit {
		return false, &BudgetError{Now: d.now, Next: bestT, Limit: limit}
	}
	if err := bestSM.issue(best, bestT); err != nil {
		return false, err
	}
	if bestT > d.now {
		d.now = bestT
	}
	d.Stats.Cycles = d.now
	return true, nil
}

// AdvanceTo fast-forwards the clock to cycle (no-op when already past).
// Use it to wait out in-flight traffic when no warp can issue.
func (d *Device) AdvanceTo(cycle int64) {
	if cycle > d.now {
		d.now = cycle
		d.Stats.Cycles = d.now
	}
}

// BudgetError reports a RunUntil cycle budget exceeded: the earliest
// pending issue lies beyond the budget limit. It is raised BEFORE the
// offending step commits, so the clock still reads Now and no state
// changed — a single long stall can no longer silently overshoot the
// budget before being reported.
type BudgetError struct {
	Now   int64 // clock when the check fired (unchanged by the check)
	Next  int64 // cycle of the earliest pending issue
	Limit int64 // last cycle the budget allows (start + maxCycles)
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: cycle budget exceeded: next issue at cycle %d is past limit %d (now %d, overshoot %d cycles)",
		e.Next, e.Limit, e.Now, e.Next-e.Limit)
}

// RunUntil steps until cond is true, no progress is possible, or the
// cycle budget would be exceeded. It returns an error on simulation
// faults, or a *BudgetError — checked before each step commits — when
// the next issue would land past d.now+maxCycles at entry. cond is
// checked before every step, so the run stops at the first step after
// which it holds.
func (d *Device) RunUntil(cond func() bool, maxCycles int64) error {
	limit := d.now + maxCycles
	for {
		if cond != nil && cond() {
			return nil
		}
		progressed, err := d.step(limit)
		if err != nil {
			return err
		}
		if !progressed {
			return nil
		}
	}
}

// RunToCycle runs until the clock reaches at least target (or no
// progress / budget exceeded, as RunUntil).
func (d *Device) RunToCycle(target, maxCycles int64) error {
	return d.RunUntil(func() bool { return d.now >= target }, maxCycles)
}

// RemoveLaunch drops a fully retired launch from the device's
// bookkeeping so long-running hosts can bound device state — and
// checkpoint size — over an unbounded job stream. The launch must be
// completely done: every block placed and every warp retired. Its warps'
// register files (vector and scalar registers and their ready clocks) go
// to the device's free list, and later launches reuse them zeroed. The
// Launch object, its warps' counters, PCs, states and records, and its
// blocks' LDS stay readable for the caller's post-mortem reads; the
// warps' VRegs and SRegs become nil, so a stale register read panics
// instead of seeing another launch's registers.
func (d *Device) RemoveLaunch(l *Launch) error {
	if l.nextBlock < len(l.blocks) || !l.Done() {
		return fmt.Errorf("sim: launch %q still active (%d/%d warps done)",
			l.Spec.Prog.Name, l.doneWarps, len(l.Warps))
	}
	i := slices.Index(d.launches, l)
	if i < 0 {
		return fmt.Errorf("sim: launch %q not tracked by this device", l.Spec.Prog.Name)
	}
	d.launches = slices.Delete(d.launches, i, i+1)
	if d.regFree == nil {
		d.regFree = make(regPool)
	}
	for _, w := range l.Warps {
		d.regFree.give(w.regFile())
		w.VRegs, w.SRegs, w.vecStore, w.clock = nil, nil, nil, nil
	}
	return nil
}

// Run executes until all launches complete (or maxCycles).
func (d *Device) Run(maxCycles int64) error {
	err := d.RunUntil(func() bool {
		for _, l := range d.launches {
			if !l.Done() {
				return false
			}
		}
		return true
	}, maxCycles)
	if err != nil {
		return err
	}
	for _, l := range d.launches {
		if !l.Done() {
			return fmt.Errorf("sim: deadlock — launch %q stalled with %d/%d warps done",
				l.Spec.Prog.Name, l.doneWarps, len(l.Warps))
		}
	}
	return nil
}

// WriteWords copies words into device memory at byte address addr.
func (d *Device) WriteWords(addr int, words []uint32) error {
	if !d.wordsInRange(addr, len(words)) {
		return fmt.Errorf("sim: WriteWords out of range addr=%d len=%d", addr, len(words))
	}
	d.Mem.Write(addr/4, words)
	return nil
}

// ReadWords copies length words from byte address addr.
func (d *Device) ReadWords(addr, length int) ([]uint32, error) {
	if !d.wordsInRange(addr, length) {
		return nil, fmt.Errorf("sim: ReadWords out of range addr=%d len=%d", addr, length)
	}
	out := make([]uint32, length)
	d.Mem.Read(addr/4, out)
	return out, nil
}

// wordsInRange reports whether n words from byte address addr are
// aligned and inside device memory.
func (d *Device) wordsInRange(addr, n int) bool {
	return addr%4 == 0 && addr >= 0 && n >= 0 && addr/4+n <= d.Mem.Words()
}
