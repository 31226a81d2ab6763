package sim

import (
	"fmt"
	"slices"

	"ctxback/internal/isa"
	"ctxback/internal/trace"
)

// Whole-device state capture. ExportState copies everything a Device
// owns between steps into a plain-data tree, its memory copy-on-write;
// ImportState rebuilds an equivalent device from it. The pair is the
// foundation of internal/snapshot's checkpoint/restore and of the
// harness's forked episodes: a restored device continues
// cycle-exactly where the exported one stopped, because the ready
// queue's (candTime, lastIssued, SM id, qseq) order is a strict total
// order on serialized per-warp fields — re-enqueueing the restored
// warps in any order reproduces the exact pop sequence.
//
// Not captured (reattach after import): the fault injector, the resume
// checker, recorders/tracers, and the runtime (passed to ImportState).
// Launch Setup closures are not serializable; they already ran at
// launch time and dispatch never re-invokes them, so the field imports
// as nil.

// DeviceState is the plain-data image of a device. All slices and maps
// are deep copies, and the memory is a copy-on-write clone (Memory.Clone):
// mutating the device after ExportState never changes the state, and vice
// versa. The clone shares page storage, so it costs a page table, and the
// device or an importer copies a page only when it first writes it.
type DeviceState struct {
	Cfg     Config
	Now     int64
	MemFree int64
	CtxFree int64
	Stats   DeviceStats
	Mem     *Memory

	// Progs holds the canonical encoding of every distinct program
	// referenced by the launches, deduplicated by identity in
	// first-launch order; ExportState shares each program's Encoding, so
	// never modify one. ImportState resolves them positionally against
	// caller-provided live programs (two jobs may run byte-identical
	// kernels at different slabs via Setup-passed arguments, so byte
	// matching alone cannot recover launch→program identity).
	Progs [][]byte

	Launches []LaunchState
	SMs      []SMState
	Episodes []EpisodeState
}

// WarpRef names a warp as (launch index, flat warp id within launch).
type WarpRef struct {
	Launch int
	Warp   int
}

// SMState is one SM's serialized scheduler-visible state. The ready
// queue is not serialized: it is rebuilt from the warps at import.
type SMState struct {
	IssueFree int64
	LDSFree   int64
	SeqGen    int64
	Offline   bool
	Episode   int // index into DeviceState.Episodes, -1 none
	// Resident lists the warps in sm.Warps order — the order is the
	// reference scheduler's scan position and must survive the trip.
	Resident []WarpRef
}

// LaunchState is one grid's serialized state.
type LaunchState struct {
	Prog          int // index into DeviceState.Progs
	NumBlocks     int
	WarpsPerBlock int
	SMFilter      []int
	NextBlock     int
	DoneWarps     int
	Blocks        []BlockState
	// Warps is indexed by flat warp id; block/lane derive from position.
	Warps []WarpSlotState
}

// BlockState is one thread block's serialized state. A block is placed
// iff its index is below the launch's NextBlock (dispatch places
// strictly in order); SM is -1 while unplaced.
type BlockState struct {
	LDS  []uint32
	SM   int
	Done int
}

// WarpSlotState serializes every field of a Warp that execution depends
// on, including the scheduler tie-breaks (LastIssued, QSeq) that make
// restored issue order exact.
type WarpSlotState struct {
	SM         int // -1 while the block is unplaced
	LDSShareLo int
	LDSShareHi int

	PC    int
	VRegs []uint32 // [AllocatedVRegs*WarpSize] flattened
	SRegs []uint64
	Exec  uint64
	VCC   uint64
	SCC   bool

	State        WarpState
	ReadyAt      int64
	RegReadyV    []int64
	RegReadyS    []int64
	RegReadySpec [isa.NumSpecRegs]int64
	DynCount     int64
	BarrierCount int
	BarrierWait  bool

	Mode         ExecMode
	Routine      []isa.Instruction
	RoutinePC    int
	SavedMode    ExecMode
	HookDepth    int
	HookSavedCtx *SavedContext
	SkipHookOnce bool
	Ctx          *SavedContext
	Rec          *PreemptRecord
	Episode      int // index into DeviceState.Episodes, -1 none
	Snapshot     *ArchSnapshot

	CtxRetries    int
	LastStoreDone int64
	LastIssued    int64
	QSeq          int64
}

// EpisodeState serializes one preemption episode, including ones
// captured mid-flight (pending signals, parked victims, mid-resume).
type EpisodeState struct {
	SM      int
	Pending bool
	// Frozen lists frozen launch indices in ascending order (the live
	// set is a map; ExportState canonicalizes by launch order).
	Frozen  []int
	Victims []WarpRef

	SignalCycle   int64
	AllSavedCycle int64
	ResumeStart   int64
	AllResumed    int64

	Faults EpisodeFaults

	EnteredCount int
	SavedCount   int
	ResumedCount int
	EnterLast    int64
	RestoreLast  int64

	Tech  string
	Names trace.PhaseNames
}

// StateIndex maps a DeviceState's launch and episode indices to the
// live objects of the device it was exported from (ExportState) or
// imported into (ImportState). Callers use it to re-find their Launch
// and Episode handles across a checkpoint/restore trip.
type StateIndex struct {
	Launches []*Launch
	Episodes []*Episode
}

// copySavedContext deep-copies a context buffer. Map iteration order is
// irrelevant here — this is a copy, not an encoding; the snapshot codec
// serializes slots in sorted-key order.
func copySavedContext(c *SavedContext) *SavedContext {
	if c == nil {
		return nil
	}
	n := &SavedContext{
		VSlots:   make(map[int32][]uint32, len(c.VSlots)),
		SSlots:   make(map[int32]uint64, len(c.SSlots)),
		Specs:    make(map[int32]uint64, len(c.Specs)),
		LDS:      append([]uint32(nil), c.LDS...),
		LDSLo:    c.LDSLo,
		PC:       c.PC,
		DynCount: c.DynCount,
		Barriers: c.Barriers,
	}
	for k, v := range c.VSlots {
		n.VSlots[k] = append([]uint32(nil), v...)
	}
	for k, v := range c.SSlots {
		n.SSlots[k] = v
	}
	for k, v := range c.Specs {
		n.Specs[k] = v
	}
	return n
}

// streamInstrs returns the instructions a decoded stream holds: what a
// state records of a routine or hook, which ImportState decodes again.
func streamInstrs(code []isa.Decoded) []isa.Instruction {
	var out []isa.Instruction
	for i := range code {
		out = append(out, *code[i].In)
	}
	return out
}

// copyArch deep-copies a signal-time architectural snapshot.
func copyArch(s *ArchSnapshot) *ArchSnapshot {
	if s == nil {
		return nil
	}
	n := &ArchSnapshot{
		PC:       s.PC,
		DynCount: s.DynCount,
		Exec:     s.Exec,
		VCC:      s.VCC,
		SCC:      s.SCC,
		SRegs:    append([]uint64(nil), s.SRegs...),
		LDSShare: append([]uint32(nil), s.LDSShare...),
		VRegs:    make([][]uint32, len(s.VRegs)),
	}
	for i, vr := range s.VRegs {
		n.VRegs[i] = append([]uint32(nil), vr...)
	}
	return n
}

// ExportState captures the device's complete execution state between
// steps. The returned index maps the state's launch/episode indices to
// the live objects. Safe at any point outside Step — including with
// episodes pending, parked, or mid-resume, and with warps inside their
// preemption/resume routines or hooks.
func (d *Device) ExportState() (*DeviceState, *StateIndex) {
	st := &DeviceState{
		Cfg:     d.Cfg,
		Now:     d.now,
		MemFree: d.memFree,
		CtxFree: d.ctxFree,
		Stats:   d.Stats,
		Mem:     d.Mem.Clone(),
	}
	idx := &StateIndex{Launches: append([]*Launch(nil), d.launches...)}

	launchIdx := make(map[*Launch]int, len(d.launches))
	progIdx := make(map[*isa.Program]int)
	for li, l := range d.launches {
		launchIdx[l] = li
		if _, ok := progIdx[l.Spec.Prog]; !ok {
			progIdx[l.Spec.Prog] = len(st.Progs)
			st.Progs = append(st.Progs, l.Spec.Prog.Encoding())
		}
	}

	// Collect episodes in deterministic order: SM-attached first (by SM
	// id), then any parked/finished episodes still referenced by warps
	// (launch order, warp order). The map is only a dedup lookup.
	epIdx := make(map[*Episode]int)
	addEp := func(ep *Episode) {
		if ep == nil {
			return
		}
		if _, ok := epIdx[ep]; !ok {
			epIdx[ep] = len(idx.Episodes)
			idx.Episodes = append(idx.Episodes, ep)
		}
	}
	for _, sm := range d.SMs {
		addEp(sm.episode)
	}
	for _, l := range d.launches {
		for _, w := range l.Warps {
			addEp(w.episode)
		}
	}

	epOf := func(ep *Episode) int {
		if ep == nil {
			return -1
		}
		return epIdx[ep]
	}

	for _, l := range d.launches {
		ls := LaunchState{
			Prog:          progIdx[l.Spec.Prog],
			NumBlocks:     l.Spec.NumBlocks,
			WarpsPerBlock: l.Spec.WarpsPerBlock,
			SMFilter:      append([]int(nil), l.Spec.SMFilter...),
			NextBlock:     l.nextBlock,
			DoneWarps:     l.doneWarps,
		}
		for _, bi := range l.blocks {
			bs := BlockState{
				LDS:  append([]uint32(nil), bi.lds.Data...),
				SM:   -1,
				Done: bi.done,
			}
			if bi.placed {
				bs.SM = bi.sm.ID
			}
			ls.Blocks = append(ls.Blocks, bs)
		}
		for _, w := range l.Warps {
			nv, ns := len(w.VRegs), len(w.SRegs)
			ws := WarpSlotState{
				SM:           -1,
				LDSShareLo:   w.LDSShareLo,
				LDSShareHi:   w.LDSShareHi,
				PC:           w.PC,
				SRegs:        append([]uint64(nil), w.SRegs...),
				Exec:         w.Exec,
				VCC:          w.VCC,
				SCC:          w.SCC,
				State:        w.State,
				ReadyAt:      w.ReadyAt,
				RegReadyV:    append([]int64(nil), w.clock[:nv]...),
				RegReadyS:    append([]int64(nil), w.clock[nv:nv+ns]...),
				RegReadySpec: [isa.NumSpecRegs]int64(w.clock[nv+ns:]),
				DynCount:     w.DynCount,
				BarrierCount: w.BarrierCount,
				BarrierWait:  w.barrierWait,
				Mode:         w.Mode,
				Routine:      streamInstrs(w.routine),
				RoutinePC:    w.routinePC,
				SavedMode:    w.savedMode,
				HookDepth:    w.hookDepth,
				HookSavedCtx: copySavedContext(w.hookSavedCtx),
				SkipHookOnce: w.skipHookOnce,
				Ctx:          copySavedContext(w.ctx),
				Episode:      epOf(w.episode),
				Snapshot:     copyArch(w.snapshot),

				CtxRetries:    w.ctxRetries,
				LastStoreDone: w.lastStoreDone,
				LastIssued:    w.lastIssued,
				QSeq:          w.qseq,
			}
			if w.SM != nil {
				ws.SM = w.SM.ID
			}
			ws.VRegs = make([]uint32, len(w.VRegs)*isa.WarpSize)
			for i, vr := range w.VRegs {
				copy(ws.VRegs[i*isa.WarpSize:(i+1)*isa.WarpSize], vr)
			}
			if w.preemptRec != nil {
				rec := *w.preemptRec
				ws.Rec = &rec
			}
			ls.Warps = append(ls.Warps, ws)
		}
		st.Launches = append(st.Launches, ls)
	}

	for _, sm := range d.SMs {
		ss := SMState{
			IssueFree: sm.issueFree,
			LDSFree:   sm.ldsFree,
			SeqGen:    sm.seqGen,
			Offline:   sm.offline,
			Episode:   epOf(sm.episode),
		}
		for _, w := range sm.Warps {
			ss.Resident = append(ss.Resident, WarpRef{Launch: launchIdx[w.launch], Warp: w.ID})
		}
		st.SMs = append(st.SMs, ss)
	}

	for _, ep := range idx.Episodes {
		es := EpisodeState{
			SM:            ep.SM.ID,
			Pending:       ep.pending,
			SignalCycle:   ep.SignalCycle,
			AllSavedCycle: ep.AllSavedCycle,
			ResumeStart:   ep.ResumeStart,
			AllResumed:    ep.AllResumed,
			Faults:        ep.Faults,
			EnteredCount:  ep.enteredCount,
			SavedCount:    ep.savedCount,
			ResumedCount:  ep.resumedCount,
			EnterLast:     ep.enterLast,
			RestoreLast:   ep.restoreLast,
			Tech:          ep.tech,
			Names:         ep.names,
		}
		// Canonicalize the frozen set as ascending launch indices.
		for li, l := range d.launches {
			if ep.frozen[l] {
				es.Frozen = append(es.Frozen, li)
			}
		}
		for _, v := range ep.Victims {
			es.Victims = append(es.Victims, WarpRef{Launch: launchIdx[v.launch], Warp: v.ID})
		}
		st.Episodes = append(st.Episodes, es)
	}
	return st, idx
}

// ImportState rebuilds st onto d, which must be a freshly-constructed
// device with the same Config (a warm-pool shell).
// progs resolves st.Progs positionally; each must byte-match its stored
// encoding. rt is the technique runtime reattached to the device and
// its in-flight episodes (nil only if st has no episodes).
//
// On success the device continues cycle-exactly where the exported one
// stopped. On error the device must be discarded — import may have
// partially mutated it.
func (d *Device) ImportState(st *DeviceState, rt Runtime, progs []*isa.Program) (*StateIndex, error) {
	if d.now != 0 || len(d.launches) != 0 || d.Stats != (DeviceStats{}) {
		return nil, fmt.Errorf("sim: ImportState target must be a fresh device")
	}
	if d.Cfg != st.Cfg {
		return nil, fmt.Errorf("sim: snapshot config mismatch: snapshot was taken on {SMs:%d warps/SM:%d mem:%d}, target is {SMs:%d warps/SM:%d mem:%d}",
			st.Cfg.NumSMs, st.Cfg.MaxWarpsPerSM, st.Cfg.GlobalMemBytes,
			d.Cfg.NumSMs, d.Cfg.MaxWarpsPerSM, d.Cfg.GlobalMemBytes)
	}
	if len(progs) != len(st.Progs) {
		return nil, fmt.Errorf("sim: ImportState needs %d programs, got %d", len(st.Progs), len(progs))
	}
	for i, p := range progs {
		if p == nil {
			return nil, fmt.Errorf("sim: ImportState program %d is nil", i)
		}
		if string(p.Encoding()) != string(st.Progs[i]) {
			return nil, fmt.Errorf("sim: ImportState program %d (%q) does not match the snapshot's program fingerprint", i, p.Name)
		}
		if err := p.Table().Err; err != nil {
			return nil, fmt.Errorf("sim: ImportState program %d: %w", i, err)
		}
	}
	// progs encode to st.Progs byte for byte, and decoding is canonical,
	// so they stand in for decoded copies.
	if err := st.checkInvariants(progs); err != nil {
		return nil, fmt.Errorf("sim: snapshot state invalid: %w", err)
	}
	if rt == nil && len(st.Episodes) > 0 {
		return nil, fmt.Errorf("sim: ImportState needs a runtime to reattach %d in-flight episodes", len(st.Episodes))
	}

	idx := &StateIndex{}
	d.Mem = st.Mem.Clone()
	d.now = st.Now
	d.memFree = st.MemFree
	d.ctxFree = st.CtxFree
	d.Stats = st.Stats

	for li := range st.Launches {
		ls := &st.Launches[li]
		prog := progs[ls.Prog]
		occ, err := d.Cfg.Occupancy(prog, ls.WarpsPerBlock)
		if err != nil {
			return nil, fmt.Errorf("sim: launch %d: %w", li, err)
		}
		l := &Launch{
			Spec: LaunchSpec{
				Prog:          prog,
				NumBlocks:     ls.NumBlocks,
				WarpsPerBlock: ls.WarpsPerBlock,
				SMFilter:      append([]int(nil), ls.SMFilter...),
			},
			Dev:       d,
			Occ:       occ,
			table:     prog.Table(),
			nextBlock: ls.NextBlock,
			doneWarps: ls.DoneWarps,
			Warps:     make([]*Warp, 0, len(ls.Warps)),
			blocks:    make([]*blockInfo, 0, len(ls.Blocks)),
		}
		for b := range ls.Blocks {
			bs := &ls.Blocks[b]
			bi := &blockInfo{
				id:   b,
				lds:  &LDSBlock{Data: append([]uint32(nil), bs.LDS...), BlockID: b},
				done: bs.Done,
			}
			if b < ls.NextBlock {
				bi.sm = d.SMs[bs.SM]
				bi.placed = true
			}
			l.blocks = append(l.blocks, bi)
		}
		for wi := range ls.Warps {
			ws := &ls.Warps[wi]
			b := wi / ls.WarpsPerBlock
			bi := l.blocks[b]
			w := newWarp(wi, b, wi%ls.WarpsPerBlock, prog, bi.lds, d.regFree)
			w.LDSShareLo = ws.LDSShareLo
			w.LDSShareHi = ws.LDSShareHi
			w.PC = ws.PC
			for i, vr := range w.VRegs {
				copy(vr, ws.VRegs[i*isa.WarpSize:(i+1)*isa.WarpSize])
			}
			copy(w.SRegs, ws.SRegs)
			w.Exec = ws.Exec
			w.VCC = ws.VCC
			w.SCC = ws.SCC
			w.State = ws.State
			w.ReadyAt = ws.ReadyAt
			// checkInvariants held each saved clock to the program's
			// register counts, the clock's own layout.
			nv, ns := len(w.VRegs), len(w.SRegs)
			copy(w.clock, ws.RegReadyV)
			copy(w.clock[nv:], ws.RegReadyS)
			copy(w.clock[nv+ns:], ws.RegReadySpec[:])
			w.DynCount = ws.DynCount
			w.BarrierCount = ws.BarrierCount
			w.barrierWait = ws.BarrierWait
			w.Mode = ws.Mode
			w.routine = isa.DecodeStream(slices.Clone(ws.Routine), nv, ns)
			w.routinePC = ws.RoutinePC
			w.savedMode = ws.SavedMode
			w.hookDepth = ws.HookDepth
			w.hookSavedCtx = copySavedContext(ws.HookSavedCtx)
			w.skipHookOnce = ws.SkipHookOnce
			w.ctx = copySavedContext(ws.Ctx)
			if w.ctx != nil {
				// The wire format carries no LDS offset: a context an
				// image holds mid-switch was saved from the warp's
				// current share.
				w.ctx.LDSLo = ws.LDSShareLo
			}
			w.snapshot = copyArch(ws.Snapshot)
			if ws.Rec != nil {
				rec := *ws.Rec
				w.preemptRec = &rec
			}
			w.ctxRetries = ws.CtxRetries
			w.lastStoreDone = ws.LastStoreDone
			w.lastIssued = ws.LastIssued
			w.qseq = ws.QSeq
			if ws.SM >= 0 {
				w.SM = d.SMs[ws.SM]
			}
			w.launch = l
			l.Warps = append(l.Warps, w)
			bi.warps = append(bi.warps, w)
		}
		d.launches = append(d.launches, l)
		idx.Launches = append(idx.Launches, l)
	}

	for si := range st.SMs {
		ss := &st.SMs[si]
		sm := d.SMs[si]
		sm.issueFree = ss.IssueFree
		sm.ldsFree = ss.LDSFree
		sm.seqGen = ss.SeqGen
		sm.offline = ss.Offline
		for _, ref := range ss.Resident {
			sm.Warps = append(sm.Warps, idx.Launches[ref.Launch].Warps[ref.Warp])
		}
	}

	for ei := range st.Episodes {
		es := &st.Episodes[ei]
		ep := &Episode{
			SM:            d.SMs[es.SM],
			rt:            rt,
			pending:       es.Pending,
			frozen:        make(map[*Launch]bool, len(es.Frozen)),
			SignalCycle:   es.SignalCycle,
			AllSavedCycle: es.AllSavedCycle,
			ResumeStart:   es.ResumeStart,
			AllResumed:    es.AllResumed,
			Faults:        es.Faults,
			enteredCount:  es.EnteredCount,
			savedCount:    es.SavedCount,
			resumedCount:  es.ResumedCount,
			enterLast:     es.EnterLast,
			restoreLast:   es.RestoreLast,
			tech:          es.Tech,
			names:         es.Names,
		}
		for _, fi := range es.Frozen {
			ep.frozen[idx.Launches[fi]] = true
		}
		for _, ref := range es.Victims {
			ep.Victims = append(ep.Victims, idx.Launches[ref.Launch].Warps[ref.Warp])
		}
		idx.Episodes = append(idx.Episodes, ep)
	}
	for si := range st.SMs {
		if e := st.SMs[si].Episode; e >= 0 {
			d.SMs[si].episode = idx.Episodes[e]
		}
	}
	for li := range st.Launches {
		for wi := range st.Launches[li].Warps {
			if e := st.Launches[li].Warps[wi].Episode; e >= 0 {
				idx.Launches[li].Warps[wi].episode = idx.Episodes[e]
			}
		}
	}

	// Attaching decides for each imported launch whether the runtime
	// may hook it, the attached one when rt is nil.
	if rt == nil {
		rt = d.rt
	}
	d.AttachRuntime(rt)

	// Rebuild the ready queue: every ready resident warp re-enqueues.
	// Insertion order is irrelevant for the pop sequence (the queue keys
	// form a strict total order), but iterate deterministically anyway.
	for _, sm := range d.SMs {
		for _, w := range sm.Warps {
			if w.State == WarpReady {
				d.enqueueReady(w)
			}
		}
	}
	return idx, nil
}

// CheckInvariants validates the structural consistency of a state tree:
// index bounds, program-derived sizes, placement/done-count agreement,
// and episode counter sanity. ImportState refuses states that fail it;
// the snapshot fuzzer calls it on every decoded state.
func (st *DeviceState) CheckInvariants() error {
	progs := make([]*isa.Program, len(st.Progs))
	for i, enc := range st.Progs {
		p, err := isa.DecodeProgram(enc)
		if err != nil {
			return fmt.Errorf("program %d: %w", i, err)
		}
		progs[i] = p
	}
	return st.checkInvariants(progs)
}

// checkInvariants is CheckInvariants given st.Progs as valid programs.
func (st *DeviceState) checkInvariants(progs []*isa.Program) error {
	if err := st.Cfg.Validate(); err != nil {
		return err
	}
	if st.Now < 0 {
		return fmt.Errorf("negative clock %d", st.Now)
	}
	if st.Mem == nil {
		return fmt.Errorf("no memory image")
	}
	if st.Mem.Words() != st.Cfg.GlobalMemBytes/4 {
		return fmt.Errorf("memory image has %d words, config needs %d", st.Mem.Words(), st.Cfg.GlobalMemBytes/4)
	}
	if len(st.SMs) != st.Cfg.NumSMs {
		return fmt.Errorf("state has %d SMs, config needs %d", len(st.SMs), st.Cfg.NumSMs)
	}
	for li := range st.Launches {
		ls := &st.Launches[li]
		if ls.Prog < 0 || ls.Prog >= len(progs) {
			return fmt.Errorf("launch %d: program index %d out of range", li, ls.Prog)
		}
		prog := progs[ls.Prog]
		if ls.NumBlocks < 1 || ls.WarpsPerBlock < 1 {
			return fmt.Errorf("launch %d: non-positive grid %dx%d", li, ls.NumBlocks, ls.WarpsPerBlock)
		}
		if len(ls.Blocks) != ls.NumBlocks {
			return fmt.Errorf("launch %d: %d block states for %d blocks", li, len(ls.Blocks), ls.NumBlocks)
		}
		if len(ls.Warps) != ls.NumBlocks*ls.WarpsPerBlock {
			return fmt.Errorf("launch %d: %d warp states for %d warps", li, len(ls.Warps), ls.NumBlocks*ls.WarpsPerBlock)
		}
		if ls.NextBlock < 0 || ls.NextBlock > ls.NumBlocks {
			return fmt.Errorf("launch %d: NextBlock %d out of range", li, ls.NextBlock)
		}
		for _, f := range ls.SMFilter {
			if f < 0 || f >= st.Cfg.NumSMs {
				return fmt.Errorf("launch %d: SMFilter names SM %d", li, f)
			}
		}
		ldsWords := prog.LDSBytes / 4
		doneWarps := 0
		for b := range ls.Blocks {
			bs := &ls.Blocks[b]
			if len(bs.LDS) != ldsWords {
				return fmt.Errorf("launch %d block %d: LDS has %d words, program needs %d", li, b, len(bs.LDS), ldsWords)
			}
			placed := b < ls.NextBlock
			if placed && (bs.SM < 0 || bs.SM >= st.Cfg.NumSMs) {
				return fmt.Errorf("launch %d block %d: placed on invalid SM %d", li, b, bs.SM)
			}
			if !placed && bs.SM != -1 {
				return fmt.Errorf("launch %d block %d: unplaced but SM is %d", li, b, bs.SM)
			}
			done := 0
			for wi := b * ls.WarpsPerBlock; wi < (b+1)*ls.WarpsPerBlock; wi++ {
				if ls.Warps[wi].State == WarpDone {
					done++
				}
			}
			if bs.Done != done {
				return fmt.Errorf("launch %d block %d: Done=%d but %d warps are done", li, b, bs.Done, done)
			}
			doneWarps += done
		}
		if ls.DoneWarps != doneWarps {
			return fmt.Errorf("launch %d: DoneWarps=%d but %d warps are done", li, ls.DoneWarps, doneWarps)
		}
		nv := prog.AllocatedVRegs()
		ns := prog.AllocatedSRegs()
		for wi := range ls.Warps {
			ws := &ls.Warps[wi]
			placed := wi/ls.WarpsPerBlock < ls.NextBlock
			if placed && (ws.SM < 0 || ws.SM >= st.Cfg.NumSMs) {
				return fmt.Errorf("launch %d warp %d: placed on invalid SM %d", li, wi, ws.SM)
			}
			if !placed && ws.SM != -1 {
				return fmt.Errorf("launch %d warp %d: unplaced but SM is %d", li, wi, ws.SM)
			}
			if len(ws.VRegs) != nv*isa.WarpSize {
				return fmt.Errorf("launch %d warp %d: %d vreg words, program needs %d", li, wi, len(ws.VRegs), nv*isa.WarpSize)
			}
			if len(ws.SRegs) != ns {
				return fmt.Errorf("launch %d warp %d: %d sregs, program needs %d", li, wi, len(ws.SRegs), ns)
			}
			if len(ws.RegReadyV) != nv || len(ws.RegReadyS) != ns {
				return fmt.Errorf("launch %d warp %d: register clock sizes %d/%d, program needs %d/%d", li, wi, len(ws.RegReadyV), len(ws.RegReadyS), nv, ns)
			}
			if ws.State > WarpPreempted {
				return fmt.Errorf("launch %d warp %d: invalid state %d", li, wi, ws.State)
			}
			if ws.Mode > ModeHook || ws.SavedMode > ModeHook {
				return fmt.Errorf("launch %d warp %d: invalid mode %d/%d", li, wi, ws.Mode, ws.SavedMode)
			}
			if ws.BarrierWait != (ws.State == WarpAtBarrier) {
				return fmt.Errorf("launch %d warp %d: barrierWait=%v inconsistent with state %v", li, wi, ws.BarrierWait, ws.State)
			}
			if ws.PC < 0 || ws.PC > prog.Len() {
				return fmt.Errorf("launch %d warp %d: PC %d out of range [0,%d]", li, wi, ws.PC, prog.Len())
			}
			if ws.RoutinePC < 0 || ws.RoutinePC > len(ws.Routine) {
				return fmt.Errorf("launch %d warp %d: routine PC %d out of range [0,%d]", li, wi, ws.RoutinePC, len(ws.Routine))
			}
			if ws.Mode != ModeKernel && len(ws.Routine) == 0 {
				return fmt.Errorf("launch %d warp %d: mode %d with empty routine", li, wi, ws.Mode)
			}
			if ws.Episode < -1 || ws.Episode >= len(st.Episodes) {
				return fmt.Errorf("launch %d warp %d: episode index %d out of range", li, wi, ws.Episode)
			}
		}
	}
	seen := make(map[WarpRef]bool)
	for si := range st.SMs {
		ss := &st.SMs[si]
		if ss.Episode < -1 || ss.Episode >= len(st.Episodes) {
			return fmt.Errorf("SM %d: episode index %d out of range", si, ss.Episode)
		}
		for _, ref := range ss.Resident {
			if ref.Launch < 0 || ref.Launch >= len(st.Launches) {
				return fmt.Errorf("SM %d: resident ref names launch %d", si, ref.Launch)
			}
			if ref.Warp < 0 || ref.Warp >= len(st.Launches[ref.Launch].Warps) {
				return fmt.Errorf("SM %d: resident ref names warp %d of launch %d", si, ref.Warp, ref.Launch)
			}
			if seen[ref] {
				return fmt.Errorf("SM %d: warp %d of launch %d resident twice", si, ref.Warp, ref.Launch)
			}
			seen[ref] = true
			if got := st.Launches[ref.Launch].Warps[ref.Warp].SM; got != si {
				return fmt.Errorf("SM %d: resident warp %d of launch %d claims SM %d", si, ref.Warp, ref.Launch, got)
			}
		}
	}
	for ei := range st.Episodes {
		es := &st.Episodes[ei]
		if es.SM < 0 || es.SM >= st.Cfg.NumSMs {
			return fmt.Errorf("episode %d: SM %d out of range", ei, es.SM)
		}
		if len(es.Victims) == 0 {
			return fmt.Errorf("episode %d: no victims", ei)
		}
		for _, ref := range es.Victims {
			if ref.Launch < 0 || ref.Launch >= len(st.Launches) ||
				ref.Warp < 0 || ref.Warp >= len(st.Launches[ref.Launch].Warps) {
				return fmt.Errorf("episode %d: victim ref (%d,%d) out of range", ei, ref.Launch, ref.Warp)
			}
		}
		prev := -1
		for _, fi := range es.Frozen {
			if fi <= prev || fi >= len(st.Launches) {
				return fmt.Errorf("episode %d: frozen launch indices not ascending in-range (%d after %d)", ei, fi, prev)
			}
			prev = fi
		}
		n := len(es.Victims)
		if es.EnteredCount < 0 || es.EnteredCount > n ||
			es.SavedCount < 0 || es.SavedCount > es.EnteredCount ||
			es.ResumedCount < 0 || es.ResumedCount > es.SavedCount {
			return fmt.Errorf("episode %d: inconsistent progress counts %d/%d/%d of %d",
				ei, es.EnteredCount, es.SavedCount, es.ResumedCount, n)
		}
	}
	return nil
}
