package core

import (
	"slices"

	"ctxback/internal/isa"
	"ctxback/internal/liveness"
)

// verRef names one value: a register and which version of it.
type verRef struct {
	reg isa.Reg
	ver version
}

// analyzer runs the window analysis (Algorithms 1 and 2) for one (P, Q)
// pair at a time. One analyzer serves a whole compile: its per-register
// tables are indexed by progInfo.regID and its per-position tables by
// window index, all sized once and reset between windows, so the
// thousands of windows a compile analyzes allocate almost nothing.
// Iteration over registers always follows seedOrder or the sorted
// live-in set at P, so the produced plan is deterministic.
type analyzer struct {
	prog  *isa.Program
	info  *progInfo
	live  *liveness.Info
	feats Feature
	// osrb is the backup assignment on offer (nil: none); firstDef
	// decides which backups are fresh at Q.
	osrb osrbTable
	// firstDef[id] is the first PC of P's block that defines register
	// id (maxPC when none): a backup copied at block entry still equals
	// the register's value at Q only when firstDef >= Q.
	firstDef []int

	p, q, n int
	liveP   []isa.Reg // LiveIn[P] in Sorted order

	// Per-register state, by regID. Only registers in seedOrder are
	// ever touched, so reset clears just those.
	defsOf          [][]int   // ascending window indices defining reg
	usesOf          [][]int   // ascending window indices reading reg
	cur             []version // last in-window definition (after buildDefs)
	seeded          []bool    // register participates in the window
	seedOrder       []isa.Reg
	initSrc         []InitSource // zero value is InitUnavailable
	revertPos       []int        // for InitRevertResume
	resumeReverts   []ResumeRevert
	hasResumeRevert []bool
	preemptState    []version // simulated state during preempt reverts
	hasPreemptState []bool

	// Per-position state, by window index (the fixpoint re-reads it
	// every round).
	needs  [][]verRef  // resolved versioned operand reads
	idefs  [][]isa.Reg // defined registers (aliases into info.defs)
	status []Status

	preemptReverts []PreemptRevert
	extras         []verRef // revertExtraRefs result

	// Need-propagation scratch (walk). A value (reg, ver) is visited in
	// the current walk when visited[regID*(n+1)+ver+1] == stamp, and
	// window instruction k is counted as re-executed when
	// replayed[k] == stamp, so no walk clears a table.
	stamp      uint32
	visited    []uint32
	replayed   []uint32
	queue      []verRef
	needRevert []isa.Reg
}

// osrbTable is an OSRB backup assignment by regID: osrbTable[id] is
// the spare register backing id up, or the zero Reg. nil offers none.
type osrbTable []isa.Reg

func newOSRBTable(info *progInfo, m map[isa.Reg]isa.Reg) osrbTable {
	if len(m) == 0 {
		return nil
	}
	t := make(osrbTable, info.numRegIDs())
	for r, spare := range m {
		t[info.regID(r)] = spare
	}
	return t
}

// maxPC marks "no definition" in analyzer.firstDef.
const maxPC = int(^uint(0) >> 1)

// newAnalyzer sizes an analyzer for windows of up to maxN instructions.
func newAnalyzer(prog *isa.Program, info *progInfo, live *liveness.Info, maxN int) *analyzer {
	nids := info.numRegIDs()
	a := &analyzer{
		prog: prog, info: info, live: live,
		firstDef:        make([]int, nids),
		defsOf:          make([][]int, nids),
		cur:             make([]version, nids),
		usesOf:          make([][]int, nids),
		seeded:          make([]bool, nids),
		initSrc:         make([]InitSource, nids),
		revertPos:       make([]int, nids),
		resumeReverts:   make([]ResumeRevert, nids),
		hasResumeRevert: make([]bool, nids),
		preemptState:    make([]version, nids),
		hasPreemptState: make([]bool, nids),
		needs:           make([][]verRef, maxN),
		idefs:           make([][]isa.Reg, maxN),
		status:          make([]Status, maxN),
		visited:         make([]uint32, nids*(maxN+1)),
		replayed:        make([]uint32, maxN),
	}
	for id := range a.firstDef {
		a.firstDef[id] = maxPC
		a.cur[id] = verInit
	}
	return a
}

// AnalyzeWindow builds (and validates) the plan for executing context
// switching at flashback-point Q when the signal arrives at P. Returns
// nil when Q is not a valid flashback-point for P under the enabled
// features. osrb offers backups as-is: the caller keeps only those whose
// copy equals the register's value at Q.
func AnalyzeWindow(prog *isa.Program, live *liveness.Info, p, q int, feats Feature, osrb map[isa.Reg]isa.Reg) *Plan {
	if q > p || q < 0 {
		return nil
	}
	info := newProgInfo(prog)
	a := newAnalyzer(prog, info, live, p-q)
	a.setP(p)
	a.analyze(q, feats, newOSRBTable(info, osrb))
	plan := a.build()
	if plan == nil || newValidator(prog, info, live).validate(plan) != nil {
		return nil
	}
	return plan
}

// setP points the analyzer at signal point p.
func (a *analyzer) setP(p int) {
	a.p = p
	a.liveP = a.live.LiveIn[p].Append(a.liveP[:0])
}

// enterBlock recomputes firstDef for the basic block [start, end).
func (a *analyzer) enterBlock(start, end int) {
	for id := range a.firstDef {
		a.firstDef[id] = maxPC
	}
	for pc := end - 1; pc >= start; pc-- {
		for _, r := range a.info.defs[pc] {
			a.firstDef[a.id(r)] = pc
		}
	}
}

// analyze classifies window [q, P) under feats, replacing the previous
// window's state.
func (a *analyzer) analyze(q int, feats Feature, osrb osrbTable) {
	for _, r := range a.seedOrder {
		id := a.id(r)
		a.defsOf[id] = a.defsOf[id][:0]
		a.usesOf[id] = a.usesOf[id][:0]
		a.cur[id] = verInit
		a.seeded[id] = false
		a.initSrc[id] = InitUnavailable
		a.hasResumeRevert[id] = false
		a.hasPreemptState[id] = false
	}
	a.seedOrder = a.seedOrder[:0]
	a.preemptReverts = a.preemptReverts[:0]
	a.q, a.n, a.feats, a.osrb = q, a.p-q, feats, osrb
	for i := 0; i < a.n; i++ {
		a.status[i] = StatusUnknown
	}
	a.buildDefs()
	a.classify()
}

func (a *analyzer) instr(i int) *isa.Instruction { return a.prog.At(a.q + i) }

func (a *analyzer) id(r isa.Reg) int { return a.info.regID(r) }

// buildDefs indexes the window's definitions and uses in one forward
// pass: cur[id] is register id's latest in-window version before
// position i, which is the version instruction i reads.
func (a *analyzer) buildDefs() {
	for i := 0; i < a.n; i++ {
		refs := a.needs[i][:0]
		for _, r := range a.info.uses[a.q+i] {
			id := a.id(r)
			refs = append(refs, verRef{reg: r, ver: a.cur[id]})
			a.usesOf[id] = append(a.usesOf[id], i)
		}
		// An EXEC-masked vector write under a partial mask merges into
		// its destination: the inactive lanes keep the prior version.
		// When some masked-out lane is observable (the def is live-in —
		// liveness only keeps it live there when the value escapes its
		// mask region), re-executing the instruction additionally needs
		// that prior version present.
		if r, ok := partialDefReads(a.prog, a.live, a.q+i); ok {
			id := a.id(r)
			refs = append(refs, verRef{reg: r, ver: a.cur[id]})
			a.usesOf[id] = append(a.usesOf[id], i)
		}
		a.needs[i] = refs
		a.idefs[i] = a.info.defs[a.q+i]
		for _, r := range a.idefs[i] {
			id := a.id(r)
			a.defsOf[id] = append(a.defsOf[id], i)
			a.cur[id] = version(i)
		}
	}
}

// partialDefReads reports the vector destination whose prior value
// instruction pc implicitly reads: an EXEC-masked per-lane write under a
// possibly-partial mask whose masked-out lanes are still observable
// (the destination is live-in at its own definition).
func partialDefReads(prog *isa.Program, live *liveness.Info, pc int) (isa.Reg, bool) {
	in := prog.At(pc)
	oi := in.Op.Info()
	if !oi.HasDst || !oi.DstVec || !oi.ReadsExec || !in.Dst.Valid() {
		return isa.Reg{}, false
	}
	if live.ExecFullIn[pc] {
		return isa.Reg{}, false
	}
	if !live.LiveIn[pc].Has(in.Dst) {
		return isa.Reg{}, false
	}
	return in.Dst, true
}

// ver returns the version of reg at window position i (before instr i
// executes); i == n gives the version at P.
func (a *analyzer) ver(i int, reg isa.Reg) version {
	return latestBefore(a.defsOf[a.id(reg)], i)
}

// latestBefore returns the last of the ascending window indices defs
// that is below i, or verInit.
func latestBefore(defs []int, i int) version {
	j, _ := slices.BinarySearch(defs, i)
	if j == 0 {
		return verInit
	}
	return version(defs[j-1])
}

// lastDef returns the final in-window definition of reg (or verInit).
func (a *analyzer) lastDef(reg isa.Reg) version { return a.cur[a.id(reg)] }

// resAvailAtP reports whether instruction i's definition of reg is still
// in the physical register when the signal is processed (backward pass
// of Algorithm 1).
func (a *analyzer) resAvailAtP(i int, reg isa.Reg) bool {
	return a.lastDef(reg) == version(i)
}

// availAt reports whether ref can be present in the register file at
// replay position pos.
func (a *analyzer) availAt(ref verRef, pos int) bool {
	if ref.ver == verInit {
		id := a.id(ref.reg)
		switch a.initSrc[id] {
		case InitDirect, InitRevertPreempt, InitOSRB:
			return true
		case InitRevertResume:
			return a.revertPos[id] <= pos
		}
		return false
	}
	switch a.status[ref.ver] {
	case StatusReExec, StatusReload:
		return true
	}
	return false
}

// seedInit seeds reg's init availability: a register never defined in
// the window keeps its flashback-point value in the physical file.
func (a *analyzer) seedInit(reg isa.Reg) {
	id := a.id(reg)
	if a.seeded[id] {
		return
	}
	a.seeded[id] = true
	a.seedOrder = append(a.seedOrder, reg)
	switch {
	case len(a.defsOf[id]) == 0:
		a.initSrc[id] = InitDirect
	case a.feats&FeatOSRB != 0 && a.osrb != nil && a.osrb[id].Valid() && a.firstDef[id] >= a.q:
		a.initSrc[id] = InitOSRB
	default:
		a.initSrc[id] = InitUnavailable
	}
}

func (a *analyzer) classify() {
	for i := 0; i < a.n; i++ {
		for _, ref := range a.needs[i] {
			a.seedInit(ref.reg)
		}
		for _, r := range a.idefs[i] {
			a.seedInit(r)
		}
	}
	for _, r := range a.liveP {
		a.seedInit(r)
	}

	// Stores and other durable side effects need no restoration: their
	// effect is already in memory when the signal arrives.
	for i := 0; i < a.n; i++ {
		if len(a.idefs[i]) == 0 {
			a.status[i] = StatusSkip
		}
	}

	// Fixpoint: classification and reverting enable each other
	// (paper §III-E).
	for changed := true; changed; {
		changed = false
		for i := 0; i < a.n; i++ {
			if a.status[i] != StatusUnknown {
				continue
			}
			if a.tryClassify(i) {
				changed = true
			}
		}
		if a.feats&FeatRevert != 0 {
			for _, reg := range a.seedOrder {
				if a.initSrc[a.id(reg)] != InitUnavailable {
					continue
				}
				if a.tryRevert(reg) {
					changed = true
				}
			}
		}
	}

	// Preference pass (paper §III-B: "CTXBack prefers re-execution to
	// saving/reloading if both are feasible"): the greedy fixpoint may
	// classify an instruction Reload before a later revert makes its
	// operands available; upgrade those to ReExec. Availability is
	// unchanged by the upgrade (both statuses restore the results), so a
	// single pass suffices.
	for i := 0; i < a.n; i++ {
		if a.status[i] == StatusReload && a.operandsAvail(i) {
			a.status[i] = StatusReExec
		}
	}
}

// operandsAvail reports whether every operand of window instruction i
// can hold its needed version at position i.
func (a *analyzer) operandsAvail(i int) bool {
	for _, ref := range a.needs[i] {
		if !a.availAt(ref, i) {
			return false
		}
	}
	return true
}

func (a *analyzer) tryClassify(i int) bool {
	// Re-executable: every operand's needed version reaches position i.
	if a.operandsAvail(i) {
		a.status[i] = StatusReExec
		return true
	}
	if a.feats&FeatRelaxed == 0 {
		return false
	}
	// Reloadable: every live result this instruction must restore is
	// still physically present at P (backward pass of Algorithm 1).
	for _, r := range a.idefs[i] {
		if a.defNeededSomewhere(i, r) && !a.resAvailAtP(i, r) {
			return false
		}
	}
	a.status[i] = StatusReload
	return true
}

// defNeededSomewhere reports whether version i of reg has any consumer:
// a later window instruction reading it, or R_cur at P. A use at
// position j reads version i exactly when i is reg's latest definition
// before j.
func (a *analyzer) defNeededSomewhere(i int, reg isa.Reg) bool {
	if a.ver(a.n, reg) == version(i) && a.live.LiveIn[a.p].Has(reg) {
		return true
	}
	id := a.id(reg)
	next := a.n
	for _, d := range a.defsOf[id] {
		if d > i {
			next = d
			break
		}
	}
	for _, u := range a.usesOf[id] {
		if u > i && u <= next {
			return true
		}
		if u > next {
			break
		}
	}
	return false
}

// revertExtraRefs lists the versioned values the revert of window
// instruction k reads besides the recovered register itself (into a
// buffer the next call reuses).
func (a *analyzer) revertExtraRefs(k int) []verRef {
	a.extras = a.extras[:0]
	for _, x := range a.info.reverts[a.q+k].extras {
		a.extras = append(a.extras, verRef{reg: x, ver: a.ver(k, x)})
	}
	return a.extras
}

// tryRevert attempts to make reg's flashback-point value available via
// instruction reverting (Algorithm 2), preferring the preemption stage.
func (a *analyzer) tryRevert(reg isa.Reg) bool {
	defs := a.defsOf[a.id(reg)]
	if len(defs) == 0 {
		return false
	}
	if a.tryRevertAtPreempt(reg, defs) {
		return true
	}
	return a.tryRevertAtResume(reg, defs)
}

// preemptVer is reg's version in the simulated preemption-stage state.
func (a *analyzer) preemptVer(r isa.Reg) version {
	if id := a.id(r); a.hasPreemptState[id] {
		return a.preemptState[id]
	}
	return a.lastDef(r)
}

// tryRevertAtPreempt simulates reverting every in-window definition of
// reg, newest first, against the evolving preemption-stage machine
// state. Only reg's own version changes during the simulation, so the
// tentative state is that one version; the reverts are appended
// tentatively and dropped again on failure.
func (a *analyzer) tryRevertAtPreempt(reg isa.Reg, defs []int) bool {
	cur := a.preemptVer(reg)
	get := func(r isa.Reg) version {
		if r == reg {
			return cur
		}
		return a.preemptVer(r)
	}
	mark := len(a.preemptReverts)
	for j := len(defs) - 1; j >= 0; j-- {
		k := defs[j]
		rf := &a.info.reverts[a.q+k]
		ok := rf.ok && a.instr(k).Dst == reg && cur == version(k)
		if ok {
			for _, ref := range a.revertExtraRefs(k) {
				if get(ref.reg) != ref.ver {
					ok = false
					break
				}
			}
		}
		if !ok {
			a.preemptReverts = a.preemptReverts[:mark]
			return false
		}
		cur = a.ver(k, reg)
		a.preemptReverts = append(a.preemptReverts, PreemptRevert{K: k, Instr: rf.instr})
	}
	if cur != verInit {
		a.preemptReverts = a.preemptReverts[:mark]
		return false
	}
	// Commit.
	id := a.id(reg)
	a.preemptState[id] = cur
	a.hasPreemptState[id] = true
	a.initSrc[id] = InitRevertPreempt
	return true
}

// tryRevertAtResume schedules a single revert inside the resume replay
// (single-definition case): the overwriting instruction's result is
// saved at preemption, reloaded during resume, and reverted once its
// other operands hold the right versions.
func (a *analyzer) tryRevertAtResume(reg isa.Reg, defs []int) bool {
	if len(defs) != 1 {
		return false
	}
	k := defs[0]
	rf := &a.info.reverts[a.q+k]
	if !rf.ok || a.instr(k).Dst != reg {
		return false
	}
	// The source value (def k) must be physically present at P so it can
	// be saved into a slot.
	if !a.resAvailAtP(k, reg) {
		return false
	}
	extras := a.revertExtraRefs(k)
	// Find the earliest placement p (before the first init-version use of
	// reg) where every extra operand holds its at-k version.
	limit := a.firstInitUse(reg)
	for pos := 0; pos <= limit; pos++ {
		ok := true
		for _, ref := range extras {
			if a.ver(pos, ref.reg) != ref.ver || !a.availAt(ref, pos) {
				ok = false
				break
			}
		}
		if ok {
			id := a.id(reg)
			a.initSrc[id] = InitRevertResume
			a.revertPos[id] = pos
			a.resumeReverts[id] = ResumeRevert{Pos: pos, Instr: rf.instr, SlotReg: reg, SlotVer: version(k)}
			a.hasResumeRevert[id] = true
			return true
		}
	}
	return false
}

// firstInitUse returns the first window position reading reg's init
// version (or n when only R_cur needs it).
func (a *analyzer) firstInitUse(reg isa.Reg) int {
	for i := 0; i < a.n; i++ {
		if a.ver(i, reg) != verInit {
			break
		}
		for _, u := range a.info.uses[a.q+i] {
			if u == reg {
				return i
			}
		}
	}
	return a.n
}

// walk propagates needs backward from R_cur (the live-in set at P) and
// totals the plan's register context and re-executed instructions. With
// plan non-nil it also records the plan's tables. It reports false when
// some needed value is unobtainable. score and build share it, so the
// ranking always uses exactly the costs of the plan build would emit.
func (a *analyzer) walk(plan *Plan) (ctxBytes, reExec int, ok bool) {
	a.stamp++
	if a.stamp == 0 { // wrapped: old marks could collide
		clear(a.visited)
		clear(a.replayed)
		a.stamp = 1
	}
	a.queue = a.queue[:0]
	a.needRevert = a.needRevert[:0]
	push := func(ref verRef) {
		key := a.id(ref.reg)*(a.n+1) + int(ref.ver) + 1
		if a.visited[key] != a.stamp {
			a.visited[key] = a.stamp
			a.queue = append(a.queue, ref)
		}
	}
	for _, r := range a.liveP {
		push(verRef{reg: r, ver: a.ver(a.n, r)})
	}
	for h := 0; h < len(a.queue); h++ {
		ref := a.queue[h]
		if ref.ver == verInit {
			id := a.id(ref.reg)
			src := a.initSrc[id]
			switch src {
			case InitDirect, InitRevertPreempt:
				ctxBytes += ref.reg.ContextBytes()
			case InitOSRB:
				spare := a.osrb[id]
				ctxBytes += spare.ContextBytes()
				if plan != nil {
					plan.OSRB[ref.reg] = spare
				}
			case InitRevertResume:
				// visited dedupes (reg, verInit), so reg appears once.
				// The overwriting result is saved instead; the revert
				// consumes that slot and its extra operands at the
				// placement position.
				ctxBytes += ref.reg.ContextBytes()
				a.needRevert = append(a.needRevert, ref.reg)
				for _, e := range a.revertExtraRefs(int(a.resumeReverts[id].SlotVer)) {
					push(e)
				}
			default:
				return 0, 0, false
			}
			if plan != nil {
				plan.InitRegs[ref.reg] = src
			}
			continue
		}
		k := int(ref.ver)
		switch a.status[k] {
		case StatusReExec:
			if a.replayed[k] != a.stamp {
				a.replayed[k] = a.stamp
				reExec++
			}
			if plan != nil {
				plan.Status[k] = StatusReExec
			}
			for _, need := range a.needs[k] {
				push(need)
			}
		case StatusReload:
			ctxBytes += ref.reg.ContextBytes()
			if plan != nil {
				plan.Status[k] = StatusReload
				regs := plan.ReloadRegs[k]
				regs.Add(ref.reg)
				plan.ReloadRegs[k] = regs
			}
		default:
			return 0, 0, false
		}
	}
	return ctxBytes, reExec + len(a.needRevert), true
}

// score ranks the analyzed window without building its plan; ok is
// false when the window is infeasible.
func (a *analyzer) score() (planRank, bool) {
	ctxBytes, reExec, ok := a.walk(nil)
	if !ok {
		return planRank{}, false
	}
	return planRank{
		pre: estPreemptCost(ctxBytes, len(a.preemptReverts)),
		res: estResumeCost(ctxBytes, reExec),
		q:   a.q,
	}, true
}

// build assembles the analyzed window's plan, or returns nil when some
// needed value is unobtainable.
func (a *analyzer) build() *Plan {
	plan := &Plan{
		P:              a.p,
		Q:              a.q,
		Status:         make([]Status, a.n),
		InitRegs:       make(map[isa.Reg]InitSource),
		ReloadRegs:     make(map[int]isa.RegSet),
		PreemptReverts: append([]PreemptRevert(nil), a.preemptReverts...),
		OSRB:           make(map[isa.Reg]isa.Reg),
	}
	for i := range plan.Status {
		plan.Status[i] = StatusSkip // only needed instructions replay
	}
	ctxBytes, reExec, ok := a.walk(plan)
	if !ok {
		return nil
	}
	for _, reg := range a.needRevert {
		plan.ResumeReverts = append(plan.ResumeReverts, a.resumeReverts[a.id(reg)])
	}
	sortResumeReverts(plan.ResumeReverts)

	// Preempt reverts were accumulated for every attempted register; keep
	// only those whose recovered register the plan actually saves, but
	// keep ordering and chain-mates (a chain recovers exactly one reg, so
	// filtering by recovered reg is safe only chain-wise; conservatively
	// keep all committed reverts — extra reverts are harmless to
	// correctness and cost one cycle each).

	plan.ContextBytes = ctxBytes
	plan.ReExecCount = reExec
	return plan
}

func sortResumeReverts(rr []ResumeRevert) {
	for i := 1; i < len(rr); i++ {
		for j := i; j > 0 && rr[j].Pos < rr[j-1].Pos; j-- {
			rr[j], rr[j-1] = rr[j-1], rr[j]
		}
	}
}
