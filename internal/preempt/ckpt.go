package preempt

import (
	"slices"
	"sort"

	"ctxback/internal/artifact"
	"ctxback/internal/isa"
	"ctxback/internal/liveness"
	"ctxback/internal/sim"
	"ctxback/internal/trace"
)

// DefaultCkptInterval is the paper's checkpoint interval: every 16th
// execution of the same basic block (§V-C).
const DefaultCkptInterval = 16

// ckptTech adapts checkpoint-based GPU fault-tolerance mechanisms
// ([5],[6]) to context switching: during normal execution each warp
// periodically snapshots the live context at its block's minimum-context
// point; preemption just drops the warp; resume restores the last
// snapshot and replays forward.
//
// Idempotence handling: a snapshot is forced right after every atomic,
// barrier, and global store that may alias a global load (replaying
// across any of them would be incorrect), mirroring how the original
// mechanisms restrict checkpoints to idempotent-region boundaries.
type ckptTech struct {
	prog     *isa.Program
	interval int

	// Immutable compilation output (checkpoint sites, liveness, the
	// routine memo), shared read-only across every episode of the same
	// program.
	static *ckptStatic

	// Per-run mutable state: last[warp ID] is the warp's latest
	// checkpoint, and visits[warp ID*blocks + block ID] counts the warp's
	// visits to the block's checkpoint site. Both grow on demand.
	last   []*sim.SavedContext
	visits []int32
}

// NewCKPT compiles the CKPT technique with the given block-execution
// interval. The site/liveness compilation is memoized per (program,
// interval); only the per-run snapshot state is fresh per instance.
func NewCKPT(prog *isa.Program, interval int) (Technique, error) {
	st, err := ckptStaticFor(prog, interval)
	if err != nil {
		return nil, err
	}
	return &ckptTech{prog: prog, interval: interval, static: st}, nil
}

// ckptStatic is the immutable part of a CKPT compilation: checkpoint
// sites and forced-snapshot PCs, and the memo of its routines. Per-run
// snapshot state lives on the technique instance, never here.
type ckptStatic struct {
	live   *liveness.Info
	site   map[int]int
	siteOf map[int]bool
	forced map[int]bool
	// code's hook takes a checkpoint at a PC, its preemption routine
	// saves the live context of a warp preempted before its first one,
	// and its resume routine restores a snapshot taken at a PC.
	code *streams
}

// ckptStaticFor is the immutable part of a CKPT compilation for prog at
// the given interval: checkpoint-site selection over the block
// structure plus the forced post-hazard snapshot PCs. The liveness link
// is not part of the disk form; a load re-attaches prog's analysis.
func ckptStaticFor(prog *isa.Program, interval int) (*ckptStatic, error) {
	return artifact.Memo(progKey(kindCkpt, prog).Int("interval", interval),
		func() (*ckptStatic, error) {
			a, err := analysisFor(prog)
			if err != nil {
				return nil, err
			}
			g, live := a.graph, a.live
			st := &ckptStatic{
				live:   live,
				site:   make(map[int]int),
				siteOf: make(map[int]bool),
				forced: make(map[int]bool),
				code:   newStreams(prog, 3, prog.Len()),
			}
			for bi := range g.Blocks {
				b := &g.Blocks[bi]
				pc, _ := live.MinContextPC(b.Start, b.End)
				st.site[b.ID] = pc
				// Blocks that write LDS get no periodic site: a snapshot
				// taken between a cross-warp LDS write and its consuming
				// barrier could capture a cut where the producer never
				// replays (the classic consistent-checkpoint problem).
				// Such blocks rely on checkpoint 0 and the forced
				// post-barrier snapshots instead.
				writesLDS := false
				for i := b.Start; i < b.End; i++ {
					if prog.At(i).Op == isa.VLStore {
						writesLDS = true
						break
					}
				}
				if !writesLDS {
					st.siteOf[pc] = true
				}
			}
			// Replay is only sound over an idempotent region. Atomics
			// and barriers end one unconditionally; so does any global
			// store that may alias a global load — a replay crossing
			// such a store re-executes the load against memory the
			// dropped incarnation already mutated (the load observes its
			// own future store). That is the same hazard class
			// SM-flushing refuses outright (flushSound); CKPT cannot
			// refuse, so it pins a checkpoint right after each hazardous
			// store, bounding every replay region to re-read only memory
			// its own execution has not yet touched. LDS is exempt: the
			// share is part of the snapshot, so replayed LDS loads see
			// checkpoint-time contents.
			var gloads []*isa.Instruction
			for pc := 0; pc < prog.Len(); pc++ {
				in := prog.At(pc)
				if in.Op == isa.VGLoad || in.Op == isa.SGLoad {
					gloads = append(gloads, in)
				}
			}
			for pc := 0; pc < prog.Len(); pc++ {
				in := prog.At(pc)
				if pc+1 >= prog.Len() {
					break
				}
				switch {
				case in.Op.Info().Class == isa.ClassAtomic || in.Op == isa.SBarrier:
					st.forced[pc+1] = true
				case in.Op == isa.VGStore || in.Op == isa.SGStore:
					for _, l := range gloads {
						if isa.MayAlias(l, in) {
							st.forced[pc+1] = true
							break
						}
					}
				}
			}
			return st, nil
		},
		func(s *ckptStatic) []byte {
			w := artifact.NewWriter()
			ids := sortedKeys(s.site)
			w.Int(len(ids))
			for _, id := range ids {
				w.Int(id)
				w.Int(s.site[id])
			}
			encodeIntSet(w, s.siteOf)
			encodeIntSet(w, s.forced)
			return w.Data()
		},
		func(p []byte) (*ckptStatic, error) {
			a, err := analysisFor(prog)
			if err != nil {
				return nil, err
			}
			r := artifact.NewReader(p)
			s := &ckptStatic{live: a.live, code: newStreams(prog, 3, prog.Len())}
			n := r.Len(2 * 8)
			s.site = make(map[int]int, n)
			for i := 0; i < n; i++ {
				id := r.Int()
				s.site[id] = r.Int()
			}
			s.siteOf = decodeIntSet(r)
			s.forced = decodeIntSet(r)
			return s, r.Close()
		})
}

func (t *ckptTech) Kind() Kind   { return Ckpt }
func (t *ckptTech) Name() string { return Ckpt.String() }

// PhaseNames: CKPT drops warps at the signal (nothing drains) and only
// falls back to a full save when no checkpoint exists yet; resume
// re-executes from the last checkpoint to the signal point.
func (t *ckptTech) PhaseNames() trace.PhaseNames {
	return trace.PhaseNames{Drain: "drain", Save: "fallback-save", Restore: "restore", Replay: "re-execute"}
}

// snapshotRegs is the context captured at pc.
func (t *ckptTech) snapshotRegs(pc int) isa.RegSet {
	regs := t.static.live.Context(pc)
	regs.Add(isa.Exec)
	regs.Add(isa.VCC)
	regs.Add(isa.SCC)
	return regs
}

// Instruments: every warp of CKPT's own program takes checkpoint 0 at
// its first instruction.
func (t *ckptTech) Instruments(prog *isa.Program) bool { return prog == t.prog }

func (t *ckptTech) Hook(w *sim.Warp, pc int) ([]isa.Decoded, *sim.SavedContext) {
	if w.Prog != t.prog {
		// Another kernel sharing the device; its warps are not ours to
		// checkpoint (warp IDs restart per launch).
		return nil, nil
	}
	take := false
	switch {
	case warpAt(t.last, w.ID) == nil:
		// Implicit checkpoint 0 at the first instruction the warp issues.
		take = true
	case t.static.forced[pc]:
		take = true
	case t.static.siteOf[pc]:
		// A block holds at most one site, so the block numbers the
		// warp's counters.
		g := t.static.live.Graph
		n := warpSlot(&t.visits, w.ID*len(g.Blocks)+g.BlockOf(pc).ID)
		*n++
		take = int(*n)%t.interval == 1
	}
	if !take {
		return nil, nil
	}
	buf := sim.NewSavedContext()
	*warpSlot(&t.last, w.ID) = buf
	return t.static.code.at(onHook, pc, func() []isa.Instruction {
		return slices.Concat(saveSet(t.snapshotRegs(pc)), ldsOp(t.prog, isa.CtxSaveLDS),
			[]isa.Instruction{{Op: isa.CtxSavePC, Target: pc}})
	}), buf
}

// PreemptRoutine: drop the warp — its context is already checkpointed.
// A warp preempted before it could take its first snapshot falls back to
// a live-context save (it has no checkpoint to replay from).
func (t *ckptTech) PreemptRoutine(w *sim.Warp) []isa.Decoded {
	if warpAt(t.last, w.ID) != nil {
		return dropCode
	}
	pc := w.PC
	return t.static.code.at(onPreempt, pc, func() []isa.Instruction {
		return preemptCode(t.prog, saveSet(t.snapshotRegs(pc)), pc)
	})
}

// ResumeRoutine restores the latest checkpoint and replays from it, or
// a warp's fallback save; either way the routine restores the snapshot
// registers at the buffer's PC.
func (t *ckptTech) ResumeRoutine(w *sim.Warp) ([]isa.Decoded, *sim.SavedContext) {
	ck, pc := warpAt(t.last, w.ID), w.Ctx().PC
	if ck != nil {
		pc = ck.PC
	}
	return t.static.code.at(onResume, pc, func() []isa.Instruction {
		return resumeCode(t.prog, loadSet(t.snapshotRegs(pc)), pc)
	}), ck
}

// StaticContextBytes reports the checkpoint size for pc's block — the
// paper's "minimum possible size" dashed line in Fig 7.
func (t *ckptTech) StaticContextBytes(pc int) int {
	// Find pc's block site via liveness graph.
	b := t.static.live.Graph.BlockOf(pc)
	return t.snapshotRegs(t.static.site[b.ID]).ContextBytes()
}

// EstPreemptCycles: dropping is nearly free.
func (t *ckptTech) EstPreemptCycles(pc int) int64 { return estFixedCycles }

// sortedKeys returns m's keys in increasing order.
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func encodeIntSet(w *artifact.Writer, set map[int]bool) {
	keys := sortedKeys(set)
	w.Int(len(keys))
	for _, k := range keys {
		w.Int(k)
	}
}

func decodeIntSet(r *artifact.Reader) map[int]bool {
	n := r.Len(8)
	m := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		m[r.Int()] = true
	}
	return m
}
