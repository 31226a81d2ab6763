package sim

import (
	"fmt"

	"ctxback/internal/isa"
)

// WarpState is the lifecycle state of a warp slot.
type WarpState uint8

const (
	WarpReady WarpState = iota
	WarpAtBarrier
	WarpDone
	WarpPreempted // context saved, slot released
)

func (s WarpState) String() string {
	switch s {
	case WarpReady:
		return "ready"
	case WarpAtBarrier:
		return "barrier"
	case WarpDone:
		return "done"
	case WarpPreempted:
		return "preempted"
	}
	return fmt.Sprintf("WarpState(%d)", uint8(s))
}

// ExecMode distinguishes what stream the warp is currently fetching from.
type ExecMode uint8

const (
	ModeKernel ExecMode = iota
	ModePreemptRoutine
	ModeResumeRoutine
	ModeHook // injected instrumentation (checkpoints, OSRB copies)
)

// Warp is one wavefront's architectural and micro-architectural state.
type Warp struct {
	ID         int // flat warp id within the launch
	BlockID    int
	WarpInBlk  int
	SM         *SM
	Prog       *isa.Program
	LDS        *LDSBlock // shared with the other warps of the block
	LDSShareLo int       // byte offset of this warp's snapshot share
	LDSShareHi int

	PC    int
	VRegs [][]uint32 // [NumVRegs][WarpSize]
	SRegs []uint64
	Exec  uint64
	VCC   uint64
	SCC   bool

	State WarpState
	// ReadyAt is the earliest cycle the warp may attempt its next issue.
	ReadyAt int64
	// clock holds, per register slot (isa.Slot: vector registers, then
	// scalar ones, then EXEC, VCC and SCC), the cycle the register's
	// in-flight value lands. The scheduler reads it for every operand of
	// every issued instruction, so it is flat, indexed by the slots the
	// decoded instruction carries.
	clock []int64
	// vecStore backs VRegs (one row per register); RemoveLaunch recycles
	// it with SRegs and clock (regFile).
	vecStore []uint32
	// DynCount counts retired kernel-mode instructions (logical
	// progress); routine/hook instructions do not count.
	DynCount int64
	// BarrierCount counts barriers this warp has passed.
	BarrierCount int
	barrierWait  bool // arrived at a barrier, waiting for the block

	Mode ExecMode
	// routine is the decoded stream executed in routine/hook modes.
	routine      []isa.Decoded
	routinePC    int
	savedMode    ExecMode // mode to restore after a hook completes
	hookDepth    int
	hookSavedCtx *SavedContext
	skipHookOnce bool          // suppress re-hooking the instruction a hook just ran for
	ctx          *SavedContext // context buffer while preempted / resuming
	preemptRec   *PreemptRecord
	// episode is the preemption episode this warp is (or was last) a
	// victim of. Kept on the warp — not looked up through the SM —
	// because an SM may start a new episode against a different tenant
	// while this warp's episode is parked (saved, awaiting resume).
	episode *Episode
	// snapshot is the architectural state captured when the preemption
	// signal was observed (only with faults or a resume checker enabled);
	// the resume-integrity oracle diffs against it.
	snapshot *ArchSnapshot
	// ctxRetries counts issue attempts of the current context-transfer
	// instruction that hit an injected transient fault (reset when the
	// instruction finally retires).
	ctxRetries int
	// lastStoreDone is the completion cycle of the warp's latest
	// outstanding store; endpgm/barrier/ctx_exit wait for it.
	lastStoreDone int64
	// lastIssued is the cycle of this warp's most recent issue (used for
	// round-robin tie-breaking in the scheduler).
	lastIssued int64
	// candTime is the hazard-resolved earliest issue time for the warp's
	// next instruction. The ready queue derives it at enqueue (it is the
	// warp's heap key); the reference scan derives it lazily, with
	// candValid as the cache flag cleared whenever the warp's own state
	// advances.
	candTime  int64
	candValid bool
	// Ready-queue intrusive state (see readyq.go): which ready structure
	// holds the warp (qheapNone when not enqueued), its links in the
	// stalled list, its index in the future heap, and its scan-position
	// sequence number — the tie-break that reproduces the reference
	// scan's first-in-scan-order preference.
	qheap  uint8
	qprev  *Warp
	qnext  *Warp
	qidx   int
	qseq   int64
	launch *Launch
}

// PreemptPC returns the PC at which this warp observed the preemption
// signal during the current episode (falls back to the current PC when
// the warp was never preempted).
func (w *Warp) PreemptPC() int {
	if w.preemptRec != nil {
		return w.preemptRec.PCAtSignal
	}
	return w.PC
}

// Record returns the warp's preemption measurement record (nil before
// any preemption).
func (w *Warp) Record() *PreemptRecord { return w.preemptRec }

// Ctx returns the warp's attached context buffer (the saved context
// while preempted / resuming, or a hook's target buffer). Techniques use
// it to read back what their preemption routines recorded.
func (w *Warp) Ctx() *SavedContext { return w.ctx }

// LDSBlock is the shared memory of one thread block.
type LDSBlock struct {
	Data    []uint32
	BlockID int
}

// SavedContext is the per-warp context buffer in device memory. Slots are
// keyed by the Imm0 the context instructions carry; the generating
// technique chooses the slot layout.
type SavedContext struct {
	VSlots map[int32][]uint32
	SSlots map[int32]uint64
	Specs  map[int32]uint64
	LDS    []uint32 // the warp's LDS share
	// LDSLo is the byte offset in the block's LDS that LDS was saved
	// from. A signal may widen a warp's share after a pre-signal save (a
	// CKPT checkpoint, an SM-flush entry image); the load restores the
	// range that was saved.
	LDSLo    int
	PC       int
	DynCount int64
	Barriers int
}

// NewSavedContext returns an empty context buffer.
func NewSavedContext() *SavedContext {
	return &SavedContext{
		VSlots: make(map[int32][]uint32),
		SSlots: make(map[int32]uint64),
		Specs:  make(map[int32]uint64),
	}
}

// PreemptRecord tracks one warp's preemption episode for measurement.
type PreemptRecord struct {
	SignalCycle    int64
	EnterCycle     int64 // warp entered its preemption routine
	RestoreDone    int64 // CtxResume retired with all restore loads landed
	SavedCycle     int64 // CtxExit retired: SM resources released
	ResumeStart    int64
	ResumeComplete int64 // logical progress back at the signal point
	DynAtSignal    int64
	PCAtSignal     int
	SavedBytes     int64 // context traffic written at preemption
	RestoredBytes  int64 // context traffic read at resume

	// SavedChecksum is the context-buffer checksum computed when the
	// preemption routine finished (only with faults enabled and
	// checksums on; HasChecksum marks validity). Verified at resume.
	SavedChecksum uint64
	HasChecksum   bool
}

// newWarp builds a warp of prog whose register storage comes from pool
// (nil: freshly allocated).
func newWarp(id, blockID, warpInBlk int, prog *isa.Program, lds *LDSBlock, pool regPool) *Warp {
	w := &Warp{
		ID:        id,
		BlockID:   blockID,
		WarpInBlk: warpInBlk,
		Prog:      prog,
		LDS:       lds,
		Exec:      ^uint64(0),
	}
	// Register files are sized to the allocated (alignment-padded)
	// counts: the padding registers physically exist — OSRB stores
	// backups there and BASELINE swaps them.
	nv, ns := prog.AllocatedVRegs(), prog.AllocatedSRegs()
	rf := pool.take(nv, ns)
	w.VRegs, w.SRegs, w.vecStore, w.clock = rf.vregs, rf.sregs, rf.vec, rf.clock
	return w
}

// regFile returns the register storage w holds.
func (w *Warp) regFile() regFile {
	return regFile{vregs: w.VRegs, vec: w.vecStore, sregs: w.SRegs, clock: w.clock}
}

// regFile is one warp's register storage: its vector and scalar
// registers and their ready clocks. One backing array serves every
// vector register and one every clock, so warp creation stays cheap per
// episode.
type regFile struct {
	vregs [][]uint32 // rows of vec, one per vector register
	vec   []uint32
	sregs []uint64
	clock []int64 // one per register slot (isa.Slot)
}

// regShape is a register file's size: vector and scalar register counts.
type regShape struct{ v, s int }

// regPool holds the register files of removed launches by shape, for
// later launches to reuse (Device.RemoveLaunch). A nil pool is empty.
type regPool map[regShape][]regFile

// take returns a zeroed register file of nv vector and ns scalar
// registers: a free one of that shape if the pool has one, else a new
// one.
func (p regPool) take(nv, ns int) regFile {
	k := regShape{nv, ns}
	if free := p[k]; len(free) > 0 {
		rf := free[len(free)-1]
		p[k] = free[:len(free)-1]
		clear(rf.vec)
		clear(rf.sregs)
		clear(rf.clock)
		return rf
	}
	rf := regFile{
		vregs: make([][]uint32, nv),
		vec:   make([]uint32, nv*isa.WarpSize),
		sregs: make([]uint64, ns),
		clock: make([]int64, nv+ns+isa.NumSpecRegs),
	}
	for i := range rf.vregs {
		rf.vregs[i] = rf.vec[i*isa.WarpSize : (i+1)*isa.WarpSize : (i+1)*isa.WarpSize]
	}
	return rf
}

// give returns rf to the pool.
func (p regPool) give(rf regFile) {
	k := regShape{len(rf.vregs), len(rf.sregs)}
	p[k] = append(p[k], rf)
}

// poison fills the register state with a recognizable garbage pattern.
// Used when a preempted warp's slot is re-materialized at resume: any
// register the resume routine fails to restore shows up as corruption in
// the golden-output comparison instead of silently reading stale data.
func (w *Warp) poison() {
	const pat = 0xDEADBEEF
	for _, vr := range w.VRegs {
		for l := range vr {
			vr[l] = pat
		}
	}
	for i := range w.SRegs {
		w.SRegs[i] = pat
	}
	w.Exec = 0
	w.VCC = pat
	w.SCC = true
}

// fetch returns the decoded instruction the warp issues next, given its
// mode, or nil when the stream is exhausted: the launch's decoded table
// at PC in kernel mode, else the routine or hook table at routinePC.
func (w *Warp) fetch() *isa.Decoded {
	code, pc := w.routine, w.routinePC
	if w.Mode == ModeKernel {
		code, pc = w.launch.table.Code, w.PC
	}
	if pc >= len(code) {
		return nil
	}
	return &code[pc]
}

// enterRoutine switches the warp into a routine stream.
func (w *Warp) enterRoutine(mode ExecMode, code []isa.Decoded) {
	w.Mode = mode
	w.routine = code
	w.routinePC = 0
}

// enterHook pushes an instrumentation stream; the previous mode resumes
// when the hook stream ends. Hooks do not nest beyond one level by
// construction (they are only injected in kernel mode).
func (w *Warp) enterHook(code []isa.Decoded) {
	w.savedMode = w.Mode
	w.hookDepth++
	w.enterRoutine(ModeHook, code)
}

// hazardsReadyAt returns the cycle at which every register e reads or
// writes has landed its in-flight value.
func (w *Warp) hazardsReadyAt(e *isa.Decoded) int64 {
	var t int64
	for _, s := range e.Hazards() {
		t = max(t, w.clock[s])
	}
	return t
}

// stamp records that every register e writes lands its value at cycle.
func (w *Warp) stamp(e *isa.Decoded, cycle int64) {
	for _, s := range e.Stamps() {
		w.clock[s] = cycle
	}
}

// activeLanes returns the number of set bits in EXEC.
func (w *Warp) activeLanes() int {
	n := 0
	for m := w.Exec; m != 0; m &= m - 1 {
		n++
	}
	return n
}
