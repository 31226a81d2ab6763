// Package gen synthesizes seeded, deterministic SIMT programs and pairs
// them with a host-side golden interpreter, turning every generated
// program into a self-checking differential test of the simulator and of
// the preemption techniques (Kerncap-style corpus scaling: the twelve
// hand-written Table I kernels cover the paper's workloads, the generator
// covers the state space between them).
//
// Every generated program is
//
//   - deterministic: one seed, one byte-identical program (math/rand with
//     an explicit source), and one run-order-independent final memory
//     image (see the data-race discipline below);
//   - terminating: loops only ever decrement dedicated counter registers
//     initialized to small immediates, so the dynamic instruction count
//     is bounded by construction (the interpreter enforces a budget as a
//     backstop);
//   - validator-clean: emitted through isa.Builder, so Program.Validate
//     runs on every build, and cfg.Build/liveness accept the result.
//
// Race discipline (what makes the final memory image independent of warp
// scheduling and preemption points):
//
//   - global stores go only to the executing warp's private output tile;
//   - global loads read the read-only input region or the warp's own
//     tile;
//   - cross-warp communication happens only through VGAtomicAdd into a
//     dedicated accumulator region that no generated instruction ever
//     loads (wrapping uint32 addition commutes, so the final sums are
//     order-free);
//   - LDS writes target only the warp's own share; reads of another
//     warp's share are separated from the writes by barriers on both
//     sides, and barriers only occur in warp-uniform control flow.
package gen

import (
	"fmt"
	"math/rand"

	"ctxback/internal/isa"
	"ctxback/internal/sim"
)

// Fixed register roles. The generator never lets random code touch the
// reserved registers, which is what makes divergence reconvergence and
// loop termination provable.
const (
	vLane = 0 // lane index * 4 (byte offset), set once in the prologue
	vAddr = 1 // address scratch, recomputed immediately before every access
	vSum  = 2 // running checksum, folded and stored by the epilogue
	vPool = 3 // first free data vector register

	sIn    = 4  // input region base (bytes)
	sOut   = 5  // this warp's output tile base (bytes)
	sAtom  = 6  // atomic accumulator region base (bytes)
	sWarp  = 7  // global warp id
	sShare = 8  // this warp's LDS share base (bytes)
	sNbr   = 9  // next warp's LDS share base (bytes)
	sTrips = 10 // top-level loop trip count (uniform across the grid)

	sCtr0 = 11 // loop counters, one per nesting depth (11..13)
	sExec = 14 // diamond save/else pairs: save=14+2d, else=15+2d, d<4
	sTmp  = 22 // epilogue scratch (VCC/EXEC folding)
	sPool = 24 // first free data scalar register

	numSRegs = 32
	maxLoop  = 3 // loop nesting depth (incl. the top-level loop)
	maxDia   = 4 // divergence diamond nesting depth
)

// Layout is the device-memory plan of one generated program. All regions
// are disjoint; sizes are powers of two so in-bounds addressing is a
// single AND.
type Layout struct {
	InBase    int // read-only input region
	InWords   int
	OutBase   int // per-warp output tiles, TileWords each
	TileWords int
	AtomBase  int // write-only (atomic add) accumulators
	AtomWords int
	// ShareWords is each warp's LDS share in words (0: program has no
	// LDS).
	ShareWords int
}

// Program is a generated kernel plus everything the host needs to run
// and check it: grid shape, memory layout, input data, and the golden
// interpreter (interp.go) that computes the expected final memory image.
type Program struct {
	Seed          uint64
	Prog          *isa.Program
	NumBlocks     int
	WarpsPerBlock int
	TopTrips      int
	Layout        Layout
	// Idempotent marks programs restricted to streaming accesses (loads
	// only from the read-only region, no atomics), the class SM-flushing
	// can reconstruct.
	Idempotent bool

	inInit   []uint32
	atomInit []uint32

	expected    []uint32
	expectedErr error
	expectedFor int
	// expectedZero[i]: page i (sim.PageWords words) of expected is all
	// zeros (CheckDevice, which fills it once per expected image).
	expectedZero []bool
}

// NumWarps returns the grid's total warp count.
func (p *Program) NumWarps() int { return p.NumBlocks * p.WarpsPerBlock }

// Init writes the input and accumulator regions into device memory.
func (p *Program) Init(d *sim.Device) error {
	if err := d.WriteWords(p.Layout.InBase, p.inInit); err != nil {
		return err
	}
	return d.WriteWords(p.Layout.AtomBase, p.atomInit)
}

// Setup loads one warp's kernel arguments (the ABI registers above).
func (p *Program) Setup(w *sim.Warp) {
	w.SRegs[sIn] = uint64(p.Layout.InBase)
	w.SRegs[sOut] = uint64(p.Layout.OutBase + w.ID*p.Layout.TileWords*4)
	w.SRegs[sAtom] = uint64(p.Layout.AtomBase)
	w.SRegs[sWarp] = uint64(w.ID)
	w.SRegs[sShare] = uint64(w.LDSShareLo)
	nbr := (w.WarpInBlk + 1) % p.WarpsPerBlock
	w.SRegs[sNbr] = uint64(nbr * p.Layout.ShareWords * 4)
	w.SRegs[sTrips] = uint64(p.TopTrips)
}

// Launch initializes memory and dispatches the grid.
func (p *Program) Launch(d *sim.Device) (*sim.Launch, error) {
	if err := p.Init(d); err != nil {
		return nil, err
	}
	return d.Launch(sim.LaunchSpec{
		Prog:          p.Prog,
		NumBlocks:     p.NumBlocks,
		WarpsPerBlock: p.WarpsPerBlock,
		Setup:         p.Setup,
	})
}

// generator carries the emission state for one program.
type generator struct {
	rng *rand.Rand
	b   *isa.Builder
	p   *Program

	nV     int   // declared vector registers
	budget int   // remaining static instructions for random segments
	dyn    int64 // remaining dynamic instruction estimate (per warp)

	loopDepth int
	diaDepth  int
	// uniform is true while emitted code executes identically in every
	// warp of a block (same path, full EXEC) — the contexts where
	// barriers and cross-share LDS reads are legal.
	uniform bool

	labels int
}

// Generate builds the program for seed. The same seed always yields a
// byte-identical program.
func Generate(seed uint64) *Program {
	rng := rand.New(rand.NewSource(int64(seed)))

	p := &Program{Seed: seed}
	p.NumBlocks = 2 + rng.Intn(3)
	p.WarpsPerBlock = 1 + rng.Intn(2)
	p.TopTrips = 2 + rng.Intn(4)
	p.Idempotent = rng.Intn(4) == 0

	lay := Layout{
		InBase:    4096,
		InWords:   2048,
		TileWords: 256,
		AtomWords: 64,
	}
	lay.OutBase = lay.InBase + lay.InWords*4
	lay.AtomBase = lay.OutBase + p.NumWarps()*lay.TileWords*4
	if rng.Intn(3) > 0 {
		lay.ShareWords = 64
	}
	p.Layout = lay

	p.inInit = seededWords(rng, lay.InWords)
	p.atomInit = seededWords(rng, lay.AtomWords)

	nV := []int{8, 12, 16}[rng.Intn(3)]
	g := &generator{
		rng:     rng,
		p:       p,
		nV:      nV,
		budget:  48 + rng.Intn(112),
		dyn:     40_000,
		uniform: true,
	}
	g.b = isa.NewBuilder(fmt.Sprintf("gen%08x", seed), nV, numSRegs,
		lay.ShareWords*4*p.WarpsPerBlock)

	g.prologue()
	g.topLoop()
	g.epilogue()

	prog, err := g.b.Build()
	if err != nil {
		// The emitters are constrained to produce validator-clean code;
		// a build error is a generator bug, which the 1k-seed
		// cleanliness test turns into a failure with the seed attached.
		panic(fmt.Sprintf("gen: seed %d produced invalid program: %v", seed, err))
	}
	p.Prog = prog
	return p
}

// seededWords draws n deterministic words.
func seededWords(rng *rand.Rand, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = rng.Uint32()
	}
	return out
}

// --- emission helpers ---

func v(i int) isa.Operand { return isa.R(isa.V(i)) }
func s(i int) isa.Operand { return isa.R(isa.S(i)) }

func (g *generator) emit(op isa.Op, ops ...isa.Operand) *isa.Builder {
	g.dyn -= g.mult()
	return g.b.I(op, ops...)
}

// mult is the dynamic repetition factor of the current nesting level,
// over-approximated as 4 per loop level (the maximum trip count).
func (g *generator) mult() int64 {
	m := int64(1)
	for i := 0; i < g.loopDepth; i++ {
		m *= 4
	}
	if g.loopDepth > 0 {
		m *= int64(g.p.TopTrips)
	}
	return m
}

func (g *generator) label(prefix string) string {
	g.labels++
	return fmt.Sprintf("%s%d", prefix, g.labels)
}

// poolV picks a random data vector register (vSum included: the checksum
// both accumulates and feeds random ops, keeping it live everywhere).
func (g *generator) poolV() int { return vSum + g.rng.Intn(g.nV-vSum) }

// poolS picks a random data scalar register.
func (g *generator) poolS() int { return sPool + g.rng.Intn(numSRegs-sPool) }

// imm draws a small immediate.
func (g *generator) imm() isa.Operand { return isa.Imm(g.rng.Intn(1 << 16)) }

// vsrc draws a vector-context source: a pool vector register, a pool
// scalar register (broadcast), or an immediate.
func (g *generator) vsrc() isa.Operand {
	switch g.rng.Intn(6) {
	case 0:
		return g.imm()
	case 1:
		return s(g.poolS())
	default:
		return v(g.poolV())
	}
}

// ssrc draws a scalar-context source.
func (g *generator) ssrc() isa.Operand {
	if g.rng.Intn(3) == 0 {
		return g.imm()
	}
	return s(g.poolS())
}

// vaddr recomputes the address scratch register:
// vAddr = base + ((src & (words-1)) << 2), in-bounds and 4-aligned by
// construction. No EXEC manipulation may intervene between this and the
// access that consumes it (the emitters keep both in one segment).
func (g *generator) vaddr(baseS, words, srcV int) {
	g.emit(isa.VAnd, v(vAddr), v(srcV), isa.Imm(words-1))
	g.dyn -= 2 * g.mult()
	g.b.NoOvf(isa.VShl, v(vAddr), v(vAddr), isa.Imm(2))
	g.b.I(isa.VAdd, v(vAddr), v(vAddr), s(baseS))
}

// --- program skeleton ---

// prologue sets up the reserved registers and gives every data register
// a warp- and lane-dependent initial value (defined-before-use keeps the
// liveness pressure honest and the golden run independent of poison
// values).
func (g *generator) prologue() {
	b := g.b
	b.I(isa.VLaneID, v(vLane))
	b.NoOvf(isa.VShl, v(vLane), v(vLane), isa.Imm(2)).Comment("lane byte offset")
	b.I(isa.VMov, v(vAddr), s(sIn))
	for i := vSum; i < g.nV; i++ {
		b.I(isa.VMad, v(i), v(vLane), isa.Imm(g.rng.Intn(1<<12)+1), s(sWarp))
		b.I(isa.VXor, v(i), v(i), isa.ImmU(g.rng.Uint32()>>1))
	}
	for i := sPool; i < numSRegs; i++ {
		b.I(isa.SMov, s(i), isa.Imm(g.rng.Intn(1<<20)))
		b.I(isa.SMul, s(i), s(i), s(sWarp))
		b.I(isa.SXor, s(i), s(i), isa.Imm(g.rng.Intn(1<<20)))
	}
	g.dyn -= int64(2 + 2*(g.nV-vSum) + 3*(numSRegs-sPool))
}

// topLoop wraps the random body in the grid-uniform main loop (trip
// count from the ABI, identical in every warp, so barriers inside it
// stay uniform).
func (g *generator) topLoop() {
	b := g.b
	b.I(isa.SMov, s(sCtr0), s(sTrips))
	top := g.label("top")
	b.Label(top)
	g.loopDepth++
	g.sequence()
	g.loopDepth--
	b.I(isa.SSub, s(sCtr0), s(sCtr0), isa.Imm(1))
	b.I(isa.SCmpGt, s(sCtr0), isa.Imm(0))
	b.Branch(isa.SCBranchSCC1, top)
	g.dyn -= int64(4 * g.p.TopTrips)
}

// epilogue folds every data register (and the mask state) into the
// checksum and stores one word per lane into the warp's tile, making the
// whole register file observable in memory.
func (g *generator) epilogue() {
	b := g.b
	for i := vPool; i < g.nV; i++ {
		b.I(isa.VMad, v(vSum), v(vSum), isa.Imm(33), v(i))
	}
	for i := sPool; i < numSRegs; i++ {
		b.I(isa.VXor, v(vSum), v(vSum), s(i))
	}
	// Loop counters and EXEC-stack slots are architecturally dead here
	// (counters ran to zero, saves were consumed); folding them anyway
	// keeps them live across the body, so a technique that corrupts one
	// mid-flight shows up in the checksum.
	for i := sCtr0; i < sTmp; i++ {
		b.I(isa.VXor, v(vSum), v(vSum), s(i))
	}
	// VCC (both halves) and EXEC.
	b.I(isa.SGetVCC, s(sTmp))
	b.I(isa.VXor, v(vSum), v(vSum), s(sTmp))
	b.I(isa.SShr, s(sTmp), s(sTmp), isa.Imm(32))
	b.I(isa.VXor, v(vSum), v(vSum), s(sTmp))
	b.I(isa.SGetExec, s(sTmp+1))
	b.I(isa.VXor, v(vSum), v(vSum), s(sTmp+1))
	// SCC, observed through a conditional perturbation.
	scc := g.label("scc")
	b.Branch(isa.SCBranchSCC1, scc)
	b.I(isa.VXor, v(vSum), v(vSum), isa.Imm(0x5A5A5A5A))
	b.Label(scc)
	b.I(isa.VAdd, v(vAddr), v(vLane), s(sOut))
	b.I(isa.VGStore, v(vAddr), v(vSum), isa.Imm(0)).Space(2)
	b.I(isa.SEndpgm)
}

// --- random body ---

// sequence emits a run of random segments until the static or dynamic
// budget for this nesting level runs out.
func (g *generator) sequence() {
	n := 1 + g.rng.Intn(6)
	for i := 0; i < n && g.budget > 0 && g.dyn > 64*g.mult(); i++ {
		g.segment()
	}
}

// segment emits one random construct.
func (g *generator) segment() {
	type choice struct {
		weight int
		emit   func()
	}
	choices := []choice{
		{8, g.valuBurst},
		{4, g.saluBurst},
		{3, g.laneOps},
		{3, g.loadInput},
		{3, g.storeTile},
		{2, g.scalarMem},
	}
	if g.diaDepth < maxDia {
		choices = append(choices, choice{5, g.diamond})
	}
	choices = append(choices, choice{3, g.uniformIf})
	if g.loopDepth < maxLoop {
		choices = append(choices, choice{3, g.loop})
	}
	if !g.p.Idempotent {
		choices = append(choices, choice{2, g.loadOwnTile}, choice{2, g.atomicAdd})
	}
	if g.p.Layout.ShareWords > 0 {
		choices = append(choices, choice{2, g.ldsOwn})
		if g.uniform {
			choices = append(choices, choice{3, g.ldsExchange})
		}
	}
	total := 0
	for _, c := range choices {
		total += c.weight
	}
	pick := g.rng.Intn(total)
	for _, c := range choices {
		if pick < c.weight {
			c.emit()
			return
		}
		pick -= c.weight
	}
}

var intVOps = []isa.Op{
	isa.VAdd, isa.VSub, isa.VMul, isa.VAnd, isa.VOr, isa.VXor,
	isa.VShl, isa.VShr, isa.VMin, isa.VMax,
}

// floatVOps excludes VMadF: Go may contract a*b+c into a fused
// multiply-add on some architectures, and the interpreter must stay
// bit-identical without copying the simulator's expression shapes.
var floatVOps = []isa.Op{
	isa.VAddF, isa.VSubF, isa.VMulF, isa.VMinF, isa.VMaxF,
	isa.VAbsF, isa.VFloorF, isa.VCvtI2F, isa.VCvtF2I,
	isa.VRcpF, isa.VSqrtF,
}

var vcmpOps = []isa.Op{isa.VCmpEqI, isa.VCmpLtI, isa.VCmpGtI, isa.VCmpLtF, isa.VCmpGtF, isa.VCmpLeF}

// valuBurst emits a run of vector ALU ops on the data pool, mixing
// integer, float, compare+select, and unary ops.
func (g *generator) valuBurst() {
	n := 1 + g.rng.Intn(6)
	g.budget -= n
	for i := 0; i < n; i++ {
		switch g.rng.Intn(10) {
		case 0:
			g.emit(isa.VMov, v(g.poolV()), g.vsrc())
		case 1:
			g.emit(isa.VNot, v(g.poolV()), v(g.poolV()))
		case 2:
			g.emit(isa.VMad, v(g.poolV()), v(g.poolV()), g.vsrc(), g.vsrc())
		case 3:
			op := floatVOps[g.rng.Intn(len(floatVOps))]
			if op.Info().NumSrc == 1 {
				g.emit(op, v(g.poolV()), v(g.poolV()))
			} else {
				g.emit(op, v(g.poolV()), v(g.poolV()), g.vsrc())
			}
		case 4:
			g.emit(vcmpOps[g.rng.Intn(len(vcmpOps))], v(g.poolV()), g.vsrc())
			g.budget--
			g.emit(isa.VCndMask, v(g.poolV()), v(g.poolV()), g.vsrc())
		default:
			g.emit(intVOps[g.rng.Intn(len(intVOps))], v(g.poolV()), v(g.poolV()), g.vsrc())
		}
	}
}

// saluBurst emits scalar ALU traffic on the scalar pool, including mask
// observations (EXEC/VCC reads) and occasional VCC writes.
func (g *generator) saluBurst() {
	ops := []isa.Op{
		isa.SAdd, isa.SSub, isa.SMul, isa.SAnd, isa.SOr, isa.SXor,
		isa.SShl, isa.SShr, isa.SMin, isa.SMax,
	}
	n := 1 + g.rng.Intn(5)
	g.budget -= n
	for i := 0; i < n; i++ {
		switch g.rng.Intn(8) {
		case 0:
			g.emit(isa.SMov, s(g.poolS()), g.ssrc())
		case 1:
			g.emit(isa.SNot, s(g.poolS()), s(g.poolS()))
		case 2:
			g.emit(isa.SGetExec, s(g.poolS()))
		case 3:
			g.emit(isa.SGetVCC, s(g.poolS()))
		case 4:
			g.emit(isa.SSetVCC, s(g.poolS()))
		default:
			g.emit(ops[g.rng.Intn(len(ops))], s(g.poolS()), s(g.poolS()), g.ssrc())
		}
	}
}

// laneOps emits cross-file moves. VReadLane/VWriteLane ignore EXEC by
// ISA definition, so they are legal in divergent bodies too.
func (g *generator) laneOps() {
	g.budget -= 2
	lane := isa.Imm(g.rng.Intn(isa.WarpSize))
	g.emit(isa.VReadLane, s(g.poolS()), v(g.poolV()), lane)
	if g.rng.Intn(2) == 0 {
		g.emit(isa.VWriteLane, v(g.poolV()), s(g.poolS()), isa.Imm(g.rng.Intn(isa.WarpSize)))
	}
}

// diamond emits a divergence diamond with explicit EXEC-mask
// save/restore: then- and else-bodies run predicated, reconverging to
// the entry mask. The else mask is computed before the then-body because
// body compares clobber VCC.
func (g *generator) diamond() {
	save, els := sExec+2*g.diaDepth, sExec+2*g.diaDepth+1
	g.budget -= 6
	g.emit(vcmpOps[g.rng.Intn(len(vcmpOps))], v(g.poolV()), g.vsrc())
	g.emit(isa.SAndSaveExecVCC, s(save))
	g.emit(isa.SGetVCC, s(els))
	g.emit(isa.SNot, s(els), s(els))
	g.emit(isa.SAnd, s(els), s(els), s(save))

	wasUniform := g.uniform
	g.uniform = false
	g.diaDepth++

	skipThen := ""
	if g.rng.Intn(2) == 0 {
		skipThen = g.label("dz")
		g.budget--
		g.dyn -= g.mult()
		g.b.Branch(isa.SCBranchExecZ, skipThen)
	}
	g.sequence()
	if skipThen != "" {
		g.b.Label(skipThen)
	}
	g.emit(isa.SSetExec, s(els))
	skipElse := ""
	if g.rng.Intn(2) == 0 {
		skipElse = g.label("dz")
		g.budget--
		g.dyn -= g.mult()
		g.b.Branch(isa.SCBranchExecZ, skipElse)
	}
	if g.rng.Intn(3) > 0 { // else-body (sometimes empty)
		g.sequence()
	}
	if skipElse != "" {
		g.b.Label(skipElse)
	}
	g.emit(isa.SSetExec, s(save))

	g.diaDepth--
	g.uniform = wasUniform
}

// uniformIf emits a per-warp scalar branch. The condition may depend on
// the warp id, so the bodies count as non-uniform (no barriers inside).
func (g *generator) uniformIf() {
	g.budget -= 3
	if g.rng.Intn(2) == 0 {
		g.emit(isa.SCmpLt, s(g.poolS()), s(sWarp))
	} else {
		cmp := []isa.Op{isa.SCmpEq, isa.SCmpNe, isa.SCmpGt, isa.SCmpLe, isa.SCmpGe}[g.rng.Intn(5)]
		g.emit(cmp, s(g.poolS()), isa.Imm(g.rng.Intn(1<<16)))
	}
	br := isa.SCBranchSCC0
	if g.rng.Intn(2) == 0 {
		br = isa.SCBranchSCC1
	}
	wasUniform := g.uniform
	g.uniform = false
	elseL, endL := g.label("else"), g.label("end")
	g.b.Branch(br, elseL)
	g.sequence()
	if g.rng.Intn(2) == 0 { // with else arm
		g.b.Branch(isa.SBranch, endL)
		g.b.Label(elseL)
		g.sequence()
		g.b.Label(endL)
	} else {
		g.b.Label(elseL)
	}
	g.uniform = wasUniform
}

// loop emits a bounded counted loop on the depth's dedicated counter.
// The counter is initialized from an immediate and decremented exactly
// once per iteration, so termination is structural.
func (g *generator) loop() {
	trips := 2 + g.rng.Intn(3)
	ctr := sCtr0 + g.loopDepth
	g.budget -= 4
	g.emit(isa.SMov, s(ctr), isa.Imm(trips))
	top := g.label("loop")
	g.b.Label(top)
	g.loopDepth++
	g.sequence()
	g.loopDepth--
	g.emit(isa.SSub, s(ctr), s(ctr), isa.Imm(1))
	g.emit(isa.SCmpGt, s(ctr), isa.Imm(0))
	g.b.Branch(isa.SCBranchSCC1, top)
}

// loadInput reads the read-only input region at a data-dependent index.
func (g *generator) loadInput() {
	g.budget -= 4
	g.vaddr(sIn, g.p.Layout.InWords, g.poolV())
	g.emit(isa.VGLoad, v(g.poolV()), v(vAddr), isa.Imm(0)).Space(spaceIn)
}

// loadOwnTile reads back the warp's own output tile — the
// read-after-write pattern that makes replay-based techniques earn their
// idempotence analysis.
func (g *generator) loadOwnTile() {
	g.budget -= 4
	g.vaddr(sOut, g.p.Layout.TileWords, g.poolV())
	g.emit(isa.VGLoad, v(g.poolV()), v(vAddr), isa.Imm(0)).Space(spaceOut)
}

// storeTile writes to the warp's own output tile at a data-dependent
// index (lanes may collide; the ISA defines lane-order resolution).
func (g *generator) storeTile() {
	g.budget -= 4
	g.vaddr(sOut, g.p.Layout.TileWords, g.poolV())
	g.emit(isa.VGStore, v(vAddr), v(g.poolV()), isa.Imm(0)).Space(spaceOut)
}

// scalarMem emits an SGLoad from the input region (and occasionally an
// SGStore to the warp's tile), addressed through the destination
// register itself.
func (g *generator) scalarMem() {
	g.budget -= 4
	dst := g.poolS()
	src := g.poolS()
	g.emit(isa.SAnd, s(dst), s(src), isa.Imm(g.p.Layout.InWords-1))
	g.emit(isa.SShl, s(dst), s(dst), isa.Imm(2))
	g.emit(isa.SAdd, s(dst), s(dst), s(sIn))
	g.emit(isa.SGLoad, s(dst), s(dst), isa.Imm(0)).Space(spaceIn)
	if !g.p.Idempotent && g.rng.Intn(3) == 0 {
		a := g.poolS()
		g.budget -= 4
		g.emit(isa.SAnd, s(a), s(a), isa.Imm(g.p.Layout.TileWords-1))
		g.emit(isa.SShl, s(a), s(a), isa.Imm(2))
		g.emit(isa.SAdd, s(a), s(a), s(sOut))
		g.emit(isa.SGStore, s(a), s(g.poolS()), isa.Imm(0)).Space(spaceOut)
	}
}

// atomicAdd bumps a data-dependent accumulator word. The accumulator
// region is never loaded, so any arrival order yields the same sums.
func (g *generator) atomicAdd() {
	g.budget -= 4
	g.vaddr(sAtom, g.p.Layout.AtomWords, g.poolV())
	g.emit(isa.VGAtomicAdd, v(vAddr), v(g.poolV()), isa.Imm(0)).Space(spaceAtom)
}

// ldsOwn writes and reads back the warp's own LDS share. Warp-private,
// so it is legal even in divergent bodies and needs no barrier.
func (g *generator) ldsOwn() {
	g.budget -= 7
	sw := g.p.Layout.ShareWords
	g.vaddr(sShare, sw, g.poolV())
	g.emit(isa.VLStore, v(vAddr), v(g.poolV()), isa.Imm(0)).Space(spaceLDS)
	g.vaddr(sShare, sw, g.poolV())
	g.emit(isa.VLLoad, v(g.poolV()), v(vAddr), isa.Imm(0)).Space(spaceLDS)
}

// ldsExchange is the cross-warp LDS pattern: write own share, barrier,
// read the next warp's share, barrier (the trailing barrier keeps a
// later exchange's writes from racing these reads). Only emitted in
// uniform context so every warp arrives at both barriers.
func (g *generator) ldsExchange() {
	g.budget -= 10
	sw := g.p.Layout.ShareWords
	g.vaddr(sShare, sw, g.poolV())
	g.emit(isa.VLStore, v(vAddr), v(g.poolV()), isa.Imm(0)).Space(spaceLDS)
	g.emit(isa.SBarrier)
	g.vaddr(sNbr, sw, g.poolV())
	g.emit(isa.VLLoad, v(g.poolV()), v(vAddr), isa.Imm(0)).Space(spaceLDS)
	g.emit(isa.SBarrier)
}

// Memory-space tags for alias analysis (cfg.MayAlias): the generator
// keeps the three global regions in distinct spaces so region analysis
// sees exactly the hazards that exist.
const (
	spaceIn   = 1
	spaceOut  = 2
	spaceAtom = 3
	spaceLDS  = 4
)
