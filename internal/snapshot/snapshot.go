// Package snapshot serializes whole-device simulator state into a
// deterministic, byte-stable, checksummed wire format and restores it —
// synchronously or speculatively — onto warm pre-initialized device
// shells. It is the paper's context-flashback idea scaled from one warp
// to a whole device: checkpointing, migration, and fault-failover become
// ordinary scheduler moves (see internal/sched's failover driver).
//
// An image is a "CSNP" container, version 2, in the repository's one
// container framing and codec, artifact.Writer/Reader (DESIGN.md §13):
// the header and an epoch u64, then six sections in fixed order with
// the bulk memory image last: meta, programs, launches, SMs, episodes,
// memory. The memory section is sparse: the word count, then only the
// 4 KiB blocks that hold a non-zero word, each as its index and its
// words, so an image's length follows what the kernels wrote, not the
// device's capacity. Encode writes each block in the same pass that
// hashes it, and Decode writes each straight into device memory.
// Decode failures wrap artifact.ErrTruncated, ErrCorrupt or ErrStale
// (an image of another version, version 1's dense memory section
// included) and name the section; StaleError is the separate epoch
// check. A restore's transfer is still charged for the whole device
// (wholeDeviceBytes).
//
// A speculative decode (DecodeSpeculative) verifies everything except
// the trailing memory checksum and hands back a deferred validator — the
// PhoenixOS-style restore starts replaying against the live-in set
// while the bulk section is, in effect, still streaming in; the
// validator (plus the sim resume-integrity oracle) decides afterward
// whether the speculation was sound.
//
// Every encoded collection is emitted from slice order or explicitly
// sorted keys (SavedContext register slots, memory blocks), and the
// decoder rejects non-canonical inputs (unsorted slot keys, non-0/1
// booleans, non-canonical routine encodings, memory blocks out of order,
// out of range or all zero, a word count the meta section disagrees
// with, trailing bytes), so encode → decode → encode is byte-identical —
// enforced by TestRepeatEncode, TestMemorySectionCanonical and
// FuzzSnapshotRoundTrip.
package snapshot

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"ctxback/internal/artifact"
	"ctxback/internal/isa"
	"ctxback/internal/sim"
	"ctxback/internal/trace"
)

const (
	magic   = "CSNP"
	version = 2
)

// Section ids, in required stream order.
const (
	secMeta uint16 = 1 + iota
	secProgs
	secLaunches
	secSMs
	secEpisodes
	secMem
)

// Snapshot pairs a device state with the checkpoint epoch that produced
// it. Epochs order checkpoints of the same job; restore validates the
// epoch against the expected one so a stale image can never silently
// revive an older version of the job.
type Snapshot struct {
	Epoch uint64
	State *sim.DeviceState
}

// VerifyEpoch returns a StaleError unless the snapshot carries epoch
// want.
func (s *Snapshot) VerifyEpoch(want uint64) error {
	if s.Epoch != want {
		return &StaleError{Want: want, Got: s.Epoch}
	}
	return nil
}

// StaleError: the snapshot is from a different checkpoint epoch than
// the restore expected.
type StaleError struct {
	Want, Got uint64
}

func (e *StaleError) Error() string {
	return fmt.Sprintf("snapshot: stale epoch %d, want %d", e.Got, e.Want)
}

// ---- per-type encoders/decoders ----

func putConfig(w *artifact.Writer, c sim.Config) {
	w.I64(int64(c.NumSMs))
	w.I64(int64(c.MaxWarpsPerSM))
	w.I64(int64(c.VRegFileBytes))
	w.I64(int64(c.SRegFileBytes))
	w.I64(int64(c.LDSBytesPerSM))
	w.F64(c.ClockGHz)
	w.I64(int64(c.MemLatency))
	w.F64(c.MemBytesPerCycle)
	w.F64(c.CtxBytesPerCycle)
	w.F64(c.CtxRestoreFactor)
	w.I64(int64(c.LDSLatency))
	w.F64(c.LDSBytesPerCycle)
	w.I64(int64(c.GlobalMemBytes))
}

func getConfig(r *artifact.Reader) sim.Config {
	return sim.Config{
		NumSMs:           int(r.I64()),
		MaxWarpsPerSM:    int(r.I64()),
		VRegFileBytes:    int(r.I64()),
		SRegFileBytes:    int(r.I64()),
		LDSBytesPerSM:    int(r.I64()),
		ClockGHz:         r.F64(),
		MemLatency:       int(r.I64()),
		MemBytesPerCycle: r.F64(),
		CtxBytesPerCycle: r.F64(),
		CtxRestoreFactor: r.F64(),
		LDSLatency:       int(r.I64()),
		LDSBytesPerCycle: r.F64(),
		GlobalMemBytes:   int(r.I64()),
	}
}

// putCtx encodes a SavedContext with all three slot maps in ascending
// key order — the one place the state tree holds maps, and the reason
// the repeat-encode test exists.
func putCtx(w *artifact.Writer, c *sim.SavedContext) {
	if c == nil {
		w.U8(0)
		return
	}
	w.U8(1)
	vkeys := make([]int32, 0, len(c.VSlots))
	for k := range c.VSlots {
		vkeys = append(vkeys, k)
	}
	sort.Slice(vkeys, func(i, j int) bool { return vkeys[i] < vkeys[j] })
	w.U32(uint32(len(vkeys)))
	for _, k := range vkeys {
		w.I32(int(k))
		w.U32s(c.VSlots[k])
	}
	putU64Map(w, c.SSlots)
	putU64Map(w, c.Specs)
	w.U32s(c.LDS)
	w.I32(c.PC)
	w.I64(c.DynCount)
	w.I32(c.Barriers)
}

func putU64Map(w *artifact.Writer, m map[int32]uint64) {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.I32(int(k))
		w.U64(m[k])
	}
}

func getCtx(r *artifact.Reader) *sim.SavedContext {
	if !r.Bool() {
		return nil
	}
	c := sim.NewSavedContext()
	n := r.Count(8)
	prev := int64(math.MinInt64)
	for i := 0; i < n; i++ {
		k := int32(r.U32())
		if int64(k) <= prev {
			r.Fail(fmt.Errorf("%w: vreg slot keys not strictly ascending", artifact.ErrCorrupt))
			return nil
		}
		prev = int64(k)
		c.VSlots[k] = r.U32s()
	}
	c.SSlots = getU64Map(r)
	c.Specs = getU64Map(r)
	c.LDS = r.U32s()
	c.PC = r.I32()
	c.DynCount = r.I64()
	c.Barriers = r.I32()
	return c
}

func getU64Map(r *artifact.Reader) map[int32]uint64 {
	m := make(map[int32]uint64)
	n := r.Count(12)
	prev := int64(math.MinInt64)
	for i := 0; i < n; i++ {
		k := int32(r.U32())
		if int64(k) <= prev {
			r.Fail(fmt.Errorf("%w: scalar slot keys not strictly ascending", artifact.ErrCorrupt))
			return m
		}
		prev = int64(k)
		m[k] = r.U64()
	}
	return m
}

func putArch(w *artifact.Writer, s *sim.ArchSnapshot) {
	if s == nil {
		w.U8(0)
		return
	}
	w.U8(1)
	w.I32(s.PC)
	w.I64(s.DynCount)
	w.U64(s.Exec)
	w.U64(s.VCC)
	w.Bool(s.SCC)
	w.U64s(s.SRegs)
	w.U32s(s.LDSShare)
	w.U32(uint32(len(s.VRegs)))
	for _, row := range s.VRegs {
		w.U32s(row)
	}
}

func getArch(r *artifact.Reader) *sim.ArchSnapshot {
	if !r.Bool() {
		return nil
	}
	s := &sim.ArchSnapshot{
		PC:       r.I32(),
		DynCount: r.I64(),
		Exec:     r.U64(),
		VCC:      r.U64(),
		SCC:      r.Bool(),
		SRegs:    r.U64s(),
		LDSShare: r.U32s(),
	}
	n := r.Count(4)
	if n > 0 {
		s.VRegs = make([][]uint32, n)
		for i := range s.VRegs {
			s.VRegs[i] = r.U32s()
		}
	}
	return s
}

func putRec(w *artifact.Writer, rec *sim.PreemptRecord) {
	if rec == nil {
		w.U8(0)
		return
	}
	w.U8(1)
	w.I64(rec.SignalCycle)
	w.I64(rec.EnterCycle)
	w.I64(rec.RestoreDone)
	w.I64(rec.SavedCycle)
	w.I64(rec.ResumeStart)
	w.I64(rec.ResumeComplete)
	w.I64(rec.DynAtSignal)
	w.I32(rec.PCAtSignal)
	w.I64(rec.SavedBytes)
	w.I64(rec.RestoredBytes)
	w.U64(rec.SavedChecksum)
	w.Bool(rec.HasChecksum)
}

func getRec(r *artifact.Reader) *sim.PreemptRecord {
	if !r.Bool() {
		return nil
	}
	return &sim.PreemptRecord{
		SignalCycle:    r.I64(),
		EnterCycle:     r.I64(),
		RestoreDone:    r.I64(),
		SavedCycle:     r.I64(),
		ResumeStart:    r.I64(),
		ResumeComplete: r.I64(),
		DynAtSignal:    r.I64(),
		PCAtSignal:     r.I32(),
		SavedBytes:     r.I64(),
		RestoredBytes:  r.I64(),
		SavedChecksum:  r.U64(),
		HasChecksum:    r.Bool(),
	}
}

// putRoutine encodes a warp's active routine stream via the canonical
// isa routine encoding.
func putRoutine(w *artifact.Writer, instrs []isa.Instruction) {
	if len(instrs) == 0 {
		w.Bytes(nil)
		return
	}
	w.Bytes(isa.EncodeRoutine(instrs))
}

func getRoutine(r *artifact.Reader) []isa.Instruction {
	raw := r.Bytes()
	if len(raw) == 0 {
		return nil
	}
	instrs, err := isa.DecodeRoutine(raw)
	if err == nil && len(instrs) == 0 {
		err = fmt.Errorf("%w: empty routine with non-empty encoding", artifact.ErrCorrupt)
	}
	r.Fail(err)
	return instrs
}

func putRefs(w *artifact.Writer, refs []sim.WarpRef) {
	w.U32(uint32(len(refs)))
	for _, ref := range refs {
		w.I32(ref.Launch)
		w.I32(ref.Warp)
	}
}

func getRefs(r *artifact.Reader) []sim.WarpRef {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]sim.WarpRef, n)
	for i := range out {
		out[i] = sim.WarpRef{Launch: r.I32(), Warp: r.I32()}
	}
	return out
}

func putNames(w *artifact.Writer, n trace.PhaseNames) {
	w.Str(n.Drain)
	w.Str(n.Save)
	w.Str(n.Restore)
	w.Str(n.Replay)
}

func getNames(r *artifact.Reader) trace.PhaseNames {
	return trace.PhaseNames{Drain: r.Str(), Save: r.Str(), Restore: r.Str(), Replay: r.Str()}
}

// ---- sections ----

// metaWidth fills the meta word that held the shard width of the
// epoch-parallel engine, which is gone. Encode writes 1, the serial
// width, so no byte of the format changes; decode rejects any other
// value.
const metaWidth = 1

func putMeta(w *artifact.Writer, st *sim.DeviceState) {
	putConfig(w, st.Cfg)
	w.I64(metaWidth)
	w.I64(st.Now)
	w.I64(st.MemFree)
	w.I64(st.CtxFree)
	w.I64(st.Stats.Instructions)
	w.I64(st.Stats.KernelInstrs)
	w.I64(st.Stats.RoutineInstrs)
	w.I64(st.Stats.HookInstrs)
	w.I64(st.Stats.GlobalBytes)
	w.I64(st.Stats.LDSBytes)
	w.I64(st.Stats.Cycles)
}

func getMeta(r *artifact.Reader, st *sim.DeviceState) {
	st.Cfg = getConfig(r)
	if v := r.I64(); v != metaWidth {
		r.Fail(fmt.Errorf("%w: meta width %d, want %d", artifact.ErrCorrupt, v, metaWidth))
	}
	st.Now = r.I64()
	st.MemFree = r.I64()
	st.CtxFree = r.I64()
	st.Stats = sim.DeviceStats{
		Instructions:  r.I64(),
		KernelInstrs:  r.I64(),
		RoutineInstrs: r.I64(),
		HookInstrs:    r.I64(),
		GlobalBytes:   r.I64(),
		LDSBytes:      r.I64(),
		Cycles:        r.I64(),
	}
}

func putLaunches(w *artifact.Writer, st *sim.DeviceState) {
	w.U32(uint32(len(st.Launches)))
	for li := range st.Launches {
		ls := &st.Launches[li]
		w.I32(ls.Prog)
		w.I32(ls.NumBlocks)
		w.I32(ls.WarpsPerBlock)
		w.I32s(ls.SMFilter)
		w.I32(ls.NextBlock)
		w.I32(ls.DoneWarps)
		w.U32(uint32(len(ls.Blocks)))
		for bi := range ls.Blocks {
			bs := &ls.Blocks[bi]
			w.U32s(bs.LDS)
			w.I32(bs.SM)
			w.I32(bs.Done)
		}
		w.U32(uint32(len(ls.Warps)))
		for wi := range ls.Warps {
			ws := &ls.Warps[wi]
			w.I32(ws.SM)
			w.I32(ws.LDSShareLo)
			w.I32(ws.LDSShareHi)
			w.I32(ws.PC)
			w.U32s(ws.VRegs)
			w.U64s(ws.SRegs)
			w.U64(ws.Exec)
			w.U64(ws.VCC)
			w.Bool(ws.SCC)
			w.U8(uint8(ws.State))
			w.I64(ws.ReadyAt)
			w.I64s(ws.RegReadyV)
			w.I64s(ws.RegReadyS)
			for _, v := range ws.RegReadySpec {
				w.I64(v)
			}
			w.I64(ws.DynCount)
			w.I32(ws.BarrierCount)
			w.Bool(ws.BarrierWait)
			w.U8(uint8(ws.Mode))
			putRoutine(w, ws.Routine)
			w.I32(ws.RoutinePC)
			w.U8(uint8(ws.SavedMode))
			w.I32(ws.HookDepth)
			putCtx(w, ws.HookSavedCtx)
			w.Bool(ws.SkipHookOnce)
			putCtx(w, ws.Ctx)
			putRec(w, ws.Rec)
			w.I32(ws.Episode)
			putArch(w, ws.Snapshot)
			w.I32(ws.CtxRetries)
			w.I64(ws.LastStoreDone)
			w.I64(ws.LastIssued)
			w.I64(ws.QSeq)
		}
	}
}

func getLaunches(r *artifact.Reader, st *sim.DeviceState) {
	nl := r.Count(24)
	for li := 0; li < nl; li++ {
		ls := sim.LaunchState{
			Prog:          r.I32(),
			NumBlocks:     r.I32(),
			WarpsPerBlock: r.I32(),
			SMFilter:      r.I32s(),
			NextBlock:     r.I32(),
			DoneWarps:     r.I32(),
		}
		nb := r.Count(12)
		for bi := 0; bi < nb; bi++ {
			ls.Blocks = append(ls.Blocks, sim.BlockState{
				LDS:  r.U32s(),
				SM:   r.I32(),
				Done: r.I32(),
			})
		}
		nw := r.Count(64)
		for wi := 0; wi < nw; wi++ {
			ws := sim.WarpSlotState{
				SM:         r.I32(),
				LDSShareLo: r.I32(),
				LDSShareHi: r.I32(),
				PC:         r.I32(),
				VRegs:      r.U32s(),
				SRegs:      r.U64s(),
				Exec:       r.U64(),
				VCC:        r.U64(),
				SCC:        r.Bool(),
				State:      sim.WarpState(r.U8()),
				ReadyAt:    r.I64(),
				RegReadyV:  r.I64s(),
				RegReadyS:  r.I64s(),
			}
			for i := range ws.RegReadySpec {
				ws.RegReadySpec[i] = r.I64()
			}
			ws.DynCount = r.I64()
			ws.BarrierCount = r.I32()
			ws.BarrierWait = r.Bool()
			ws.Mode = sim.ExecMode(r.U8())
			ws.Routine = getRoutine(r)
			ws.RoutinePC = r.I32()
			ws.SavedMode = sim.ExecMode(r.U8())
			ws.HookDepth = r.I32()
			ws.HookSavedCtx = getCtx(r)
			ws.SkipHookOnce = r.Bool()
			ws.Ctx = getCtx(r)
			ws.Rec = getRec(r)
			ws.Episode = r.I32()
			ws.Snapshot = getArch(r)
			ws.CtxRetries = r.I32()
			ws.LastStoreDone = r.I64()
			ws.LastIssued = r.I64()
			ws.QSeq = r.I64()
			ls.Warps = append(ls.Warps, ws)
			if r.Err() != nil {
				return
			}
		}
		st.Launches = append(st.Launches, ls)
		if r.Err() != nil {
			return
		}
	}
}

func putSMs(w *artifact.Writer, st *sim.DeviceState) {
	w.U32(uint32(len(st.SMs)))
	for si := range st.SMs {
		ss := &st.SMs[si]
		w.I64(ss.IssueFree)
		w.I64(ss.LDSFree)
		w.I64(ss.SeqGen)
		w.Bool(ss.Offline)
		w.I32(ss.Episode)
		putRefs(w, ss.Resident)
	}
}

func getSMs(r *artifact.Reader, st *sim.DeviceState) {
	n := r.Count(33)
	for i := 0; i < n; i++ {
		st.SMs = append(st.SMs, sim.SMState{
			IssueFree: r.I64(),
			LDSFree:   r.I64(),
			SeqGen:    r.I64(),
			Offline:   r.Bool(),
			Episode:   r.I32(),
			Resident:  getRefs(r),
		})
		if r.Err() != nil {
			return
		}
	}
}

func putEpisodes(w *artifact.Writer, st *sim.DeviceState) {
	w.U32(uint32(len(st.Episodes)))
	for ei := range st.Episodes {
		es := &st.Episodes[ei]
		w.I32(es.SM)
		w.Bool(es.Pending)
		w.I32s(es.Frozen)
		putRefs(w, es.Victims)
		w.I64(es.SignalCycle)
		w.I64(es.AllSavedCycle)
		w.I64(es.ResumeStart)
		w.I64(es.AllResumed)
		w.I32(es.Faults.TransientRetries)
		w.I32(es.Faults.CorruptedContexts)
		w.I32(es.Faults.ChecksumMismatches)
		w.I32(es.Faults.AbsorbedDupSignals)
		w.I32(es.EnteredCount)
		w.I32(es.SavedCount)
		w.I32(es.ResumedCount)
		w.I64(es.EnterLast)
		w.I64(es.RestoreLast)
		w.Str(es.Tech)
		putNames(w, es.Names)
	}
}

func getEpisodes(r *artifact.Reader, st *sim.DeviceState) {
	n := r.Count(80)
	for i := 0; i < n; i++ {
		es := sim.EpisodeState{
			SM:      r.I32(),
			Pending: r.Bool(),
			Frozen:  r.I32s(),
			Victims: getRefs(r),
		}
		es.SignalCycle = r.I64()
		es.AllSavedCycle = r.I64()
		es.ResumeStart = r.I64()
		es.AllResumed = r.I64()
		es.Faults = sim.EpisodeFaults{
			TransientRetries:   r.I32(),
			CorruptedContexts:  r.I32(),
			ChecksumMismatches: r.I32(),
			AbsorbedDupSignals: r.I32(),
		}
		es.EnteredCount = r.I32()
		es.SavedCount = r.I32()
		es.ResumedCount = r.I32()
		es.EnterLast = r.I64()
		es.RestoreLast = r.I64()
		es.Tech = r.Str()
		es.Names = getNames(r)
		st.Episodes = append(st.Episodes, es)
		if r.Err() != nil {
			return
		}
	}
}

func putProgs(w *artifact.Writer, st *sim.DeviceState) {
	w.U32(uint32(len(st.Progs)))
	for _, p := range st.Progs {
		w.Bytes(p)
	}
}

func getProgs(r *artifact.Reader, st *sim.DeviceState) {
	n := r.Count(4)
	for i := 0; i < n; i++ {
		st.Progs = append(st.Progs, append([]byte(nil), r.Bytes()...))
	}
}

// memBlockWords is the memory section's block, 1024 words (4 KiB): the
// section lists only the blocks that hold a non-zero word. It is a
// format constant, independent of sim.PageWords, which must be a
// multiple of it (the assertion below) so that no block spans two pages;
// 1024 and 256 words measured the same on the repository benchmark.
const memBlockWords = 1 << 10

const _ uint = -(sim.PageWords % memBlockWords)

// memBlock is one non-zero block of device memory: its index and a
// read-only view of its words, short for the last block of a memory
// whose size is not a multiple of memBlockWords.
type memBlock struct {
	index int
	words []uint32
}

// putMem writes the memory section: the word count, the number of
// blocks that hold a non-zero word, then each such block as its index
// and its words, in ascending index order. Pages without storage are
// skipped unread. A first pass finds the non-zero blocks, so the writer
// grows once, to the section's exact size; the second writes each block
// while the checksum folds it, into bytes Extend returns zero, so only
// the non-zero 64-byte runs of a block are written.
func putMem(w *artifact.Writer, mem *sim.Memory) {
	var blocks []memBlock
	size := 4 + 4
	mem.Runs(0, mem.Words(), func(off int, run []uint32, owned bool) {
		for at := 0; owned && at < len(run); at += memBlockWords {
			if b := run[at:min(at+memBlockWords, len(run))]; slices.ContainsFunc(b, nonZero) {
				blocks = append(blocks, memBlock{(off + at) / memBlockWords, b})
				size += 4 + 4*len(b)
			}
		}
	})
	w.Grow(2 + 4 + size + 8)
	w.SummedSection(secMem, func() artifact.Checksum {
		head := []uint32{uint32(mem.Words()), uint32(len(blocks))}
		w.U32(head[0])
		w.U32(head[1])
		sum := artifact.NewChecksum().Words(head)
		for _, b := range blocks {
			w.U32(uint32(b.index))
			sum = sum.Words([]uint32{uint32(b.index)}).PutWords(w.Extend(4*len(b.words)), b.words)
		}
		return sum
	})
}

func nonZero(v uint32) bool { return v != 0 }

// getMem decodes the memory section block by block straight into device
// memory, so only the pages holding the blocks it names get storage. It
// checks the word count against the meta section before it allocates
// the page table, and bounds the block count by the bytes left. The
// indices must ascend strictly and lie inside memory, and every block
// must hold a non-zero word: anything Encode would not write is corrupt.
func getMem(r *artifact.Reader, st *sim.DeviceState) {
	words := int(r.U32())
	if want := st.Cfg.GlobalMemBytes / 4; r.Err() == nil && words != want {
		r.Fail(fmt.Errorf("%w: %d memory words, meta section says %d", artifact.ErrCorrupt, words, want))
	}
	n := r.Count(4 + 4) // an index and at least one word per block
	if r.Err() != nil {
		return
	}
	st.Mem = sim.NewMemory(words)
	end := (words + memBlockWords - 1) / memBlockWords
	buf := make([]uint32, memBlockWords)
	for i, prev := 0, -1; i < n && r.Err() == nil; i++ {
		b := int(r.U32())
		if b <= prev || b >= end {
			r.Fail(fmt.Errorf("%w: memory block %d after block %d, of %d", artifact.ErrCorrupt, b, prev, end))
			return
		}
		prev = b
		at := b * memBlockWords
		if run := buf[:min(memBlockWords, words-at)]; r.Words(run) {
			st.Mem.Write(at, run)
		} else {
			r.Fail(fmt.Errorf("%w: memory block %d is all zero", artifact.ErrCorrupt, b))
		}
	}
}

// ---- top level ----

// sections lists the CSNP sections in stream order, the bulk memory
// image last.
var sections = []struct {
	id   uint16
	name string
	get  func(*artifact.Reader, *sim.DeviceState)
}{
	{secMeta, "meta", getMeta},
	{secProgs, "programs", getProgs},
	{secLaunches, "launches", getLaunches},
	{secSMs, "sms", getSMs},
	{secEpisodes, "episodes", getEpisodes},
	{secMem, "memory", getMem},
}

// Encode serializes snap. The output is byte-stable: equal snapshots
// encode to equal bytes regardless of map layout or encode count.
func Encode(snap *Snapshot) []byte {
	st := snap.State
	w := artifact.NewWriter()
	w.Grow(64 << 10)
	w.Header(magic, version)
	w.U64(snap.Epoch)
	w.Section(secMeta, func() { putMeta(w, st) })
	w.Section(secProgs, func() { putProgs(w, st) })
	w.Section(secLaunches, func() { putLaunches(w, st) })
	w.Section(secSMs, func() { putSMs(w, st) })
	w.Section(secEpisodes, func() { putEpisodes(w, st) })
	putMem(w, st.Mem)
	return w.Data()
}

// Decode parses and fully verifies an Encode buffer: magic, version,
// every section present once in order, every checksum, canonical form,
// no trailing bytes. It does NOT run sim-level invariant checks — the
// caller (or ImportState) does that on the returned state.
func Decode(data []byte) (*Snapshot, error) {
	snap, _, _, err := decode(data, false)
	return snap, err
}

// DecodeSpeculative parses data like Decode but defers the trailing
// memory-section checksum: the returned validate function performs that
// comparison when called. A restore can therefore begin replaying
// against the fully-verified control state while the bulk memory image
// is still, logically, in flight — the PhoenixOS speculation — and run
// validate (plus the resume-integrity oracle) afterward to decide
// whether to keep the result or fall back to a synchronous restore.
func DecodeSpeculative(data []byte) (*Snapshot, func() error, error) {
	snap, validate, _, err := decode(data, true)
	return snap, validate, err
}

// decode is Decode, or DecodeSpeculative when speculative, that also
// returns the length of the image before its memory section: the header
// and the control sections.
func decode(data []byte, speculative bool) (snap *Snapshot, validate func() error, control int, err error) {
	r := artifact.NewReader(data)
	r.Header(magic, version)
	epoch := r.U64()
	st := &sim.DeviceState{}
	validate = func() error { return nil }
	for _, s := range sections {
		var p *artifact.Reader
		if s.id == secMem {
			control = r.Offset()
		}
		if s.id == secMem && speculative {
			// Defer the bulk checksum; everything structural still runs.
			p, validate = r.DeferredSection(s.id, s.name)
		} else {
			p = r.Section(s.id, s.name)
		}
		s.get(p, st)
		if err := p.Close(); err != nil {
			return nil, nil, 0, err
		}
	}
	if err := r.Close(); err != nil {
		return nil, nil, 0, err
	}
	return &Snapshot{Epoch: epoch, State: st}, validate, control, nil
}

// Capture is the checkpoint entry point: exports dev's state and wraps
// it with epoch.
func Capture(dev *sim.Device, epoch uint64) (*Snapshot, []byte) {
	st, _ := dev.ExportState()
	snap := &Snapshot{Epoch: epoch, State: st}
	return snap, Encode(snap)
}
