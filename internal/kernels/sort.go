package kernels

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"ctxback/internal/isa"
	"ctxback/internal/sim"
)

const (
	hsBuckets  = 16
	hsSortN    = 256 // elements bitonic-sorted per warp
	spaceHist  = 4
	spaceSortD = 5
)

// NewHS builds Hybrid Sort (7.0 KB vregs, 12 KB LDS), modeled on
// Rodinia's hybridsort: a bucket-histogram phase using global atomics
// followed by a per-warp bitonic sort of a 256-element tile staged in
// LDS. The atomics break idempotent regions and the LDS dominates the
// context, reproducing why no technique reduces HS's context much.
func NewHS(p Params) (*Workload, error) {
	histPerWarp := p.ItersPerWarp * isa.WarpSize
	warps := p.NumBlocks * p.WarpsPerBlock
	totalHist := warps * histPerWarp

	b := isa.NewBuilder("hs", 26, 36, 12<<10)
	// ABI: s4=hist data tile, s5=iters, s6=hist base, s7=sort tile in,
	// s8=sort tile out, s9=LDS share base.
	b.I(isa.VLaneID, rg(vr(0)))
	b.NoOvf(isa.VShl, rg(vr(1)), rg(vr(0)), im(2))
	b.NoOvf(isa.VAdd, rg(vr(2)), rg(vr(1)), rg(sr(4))).Comment("hist data ptr")
	b.I(isa.VMov, rg(vr(3)), im(1)).Comment("atomic increment")
	b.Label("histloop")
	b.I(isa.VGLoad, rg(vr(4)), rg(vr(2)), im(0)).Space(spaceA)
	b.I(isa.VShr, rg(vr(5)), rg(vr(4)), im(27)).Comment("bucket of 31-bit value")
	b.NoOvf(isa.VShl, rg(vr(5)), rg(vr(5)), im(2))
	b.NoOvf(isa.VAdd, rg(vr(5)), rg(vr(5)), rg(sr(6)))
	b.I(isa.VGAtomicAdd, rg(vr(5)), rg(vr(3)), im(0)).Space(spaceHist)
	b.NoOvf(isa.VAdd, rg(vr(2)), rg(vr(2)), im(isa.WarpSize*4))
	b.I(isa.SSub, rg(sr(5)), rg(sr(5)), im(1))
	b.I(isa.SCmpGt, rg(sr(5)), im(0))
	b.Branch(isa.SCBranchSCC1, "histloop")
	b.I(isa.SBarrier)

	// Stage the 256-element sort tile into LDS (4 chunks of 64).
	b.NoOvf(isa.VAdd, rg(vr(6)), rg(vr(1)), rg(sr(7))).Comment("global in ptr")
	b.NoOvf(isa.VAdd, rg(vr(7)), rg(vr(1)), rg(sr(9))).Comment("LDS ptr")
	for c := 0; c < hsSortN/isa.WarpSize; c++ {
		b.I(isa.VGLoad, rg(vr(8)), rg(vr(6)), im(c*isa.WarpSize*4)).Space(spaceSortD)
		b.I(isa.VLStore, rg(vr(7)), rg(vr(8)), im(c*isa.WarpSize*4))
	}

	// Bitonic sort: uniform loops over (k, j); each lane handles indices
	// i = m*64 + lane. s10=k, s11=j, s12=m counter, s13=saved exec.
	b.I(isa.SMov, rg(sr(10)), im(2))
	b.Label("kloop")
	b.I(isa.SShr, rg(sr(11)), rg(sr(10)), im(1))
	b.Label("jloop")
	b.I(isa.SMov, rg(sr(12)), im(0))
	b.Label("mloop")
	// i = m*64 + lane  (v8); partner = i ^ j (v9).
	b.I(isa.SShl, rg(sr(14)), rg(sr(12)), im(6))
	b.NoOvf(isa.VAdd, rg(vr(8)), rg(vr(0)), rg(sr(14)))
	b.I(isa.VXor, rg(vr(9)), rg(vr(8)), rg(sr(11)))
	// Only the lower element of each pair acts: partner > i.
	b.I(isa.VCmpGtI, rg(vr(9)), rg(vr(8)))
	b.I(isa.SAndSaveExecVCC, rg(sr(13)))
	// Addresses: share + idx*4.
	b.NoOvf(isa.VShl, rg(vr(10)), rg(vr(8)), im(2))
	b.NoOvf(isa.VAdd, rg(vr(10)), rg(vr(10)), rg(sr(9)))
	b.NoOvf(isa.VShl, rg(vr(11)), rg(vr(9)), im(2))
	b.NoOvf(isa.VAdd, rg(vr(11)), rg(vr(11)), rg(sr(9)))
	b.I(isa.VLLoad, rg(vr(12)), rg(vr(10)), im(0)).Comment("a = lds[i]")
	b.I(isa.VLLoad, rg(vr(13)), rg(vr(11)), im(0)).Comment("b = lds[partner]")
	b.I(isa.VMin, rg(vr(14)), rg(vr(12)), rg(vr(13)))
	b.I(isa.VMax, rg(vr(15)), rg(vr(12)), rg(vr(13)))
	// Ascending iff (i & k) == 0.
	b.I(isa.VAnd, rg(vr(16)), rg(vr(8)), rg(sr(10)))
	b.I(isa.VCmpEqI, rg(vr(16)), im(0))
	b.I(isa.VCndMask, rg(vr(17)), rg(vr(15)), rg(vr(14))).Comment("lds[i]: asc?lo:hi")
	b.I(isa.VCndMask, rg(vr(18)), rg(vr(14)), rg(vr(15))).Comment("lds[p]: asc?hi:lo")
	b.I(isa.VLStore, rg(vr(10)), rg(vr(17)), im(0))
	b.I(isa.VLStore, rg(vr(11)), rg(vr(18)), im(0))
	b.I(isa.SSetExec, rg(sr(13)))
	b.I(isa.SAdd, rg(sr(12)), rg(sr(12)), im(1))
	b.I(isa.SCmpLt, rg(sr(12)), im(hsSortN/isa.WarpSize))
	b.Branch(isa.SCBranchSCC1, "mloop")
	b.I(isa.SShr, rg(sr(11)), rg(sr(11)), im(1))
	b.I(isa.SCmpGt, rg(sr(11)), im(0))
	b.Branch(isa.SCBranchSCC1, "jloop")
	b.I(isa.SShl, rg(sr(10)), rg(sr(10)), im(1))
	b.I(isa.SCmpLe, rg(sr(10)), im(hsSortN))
	b.Branch(isa.SCBranchSCC1, "kloop")

	// Write the sorted tile back.
	b.NoOvf(isa.VAdd, rg(vr(19)), rg(vr(1)), rg(sr(8)))
	for c := 0; c < hsSortN/isa.WarpSize; c++ {
		b.I(isa.VLLoad, rg(vr(20)), rg(vr(7)), im(c*isa.WarpSize*4))
		b.I(isa.VGStore, rg(vr(19)), rg(vr(20)), im(c*isa.WarpSize*4)).Space(spaceC)
	}
	b.I(isa.SEndpgm)
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(p.Seed))
	histData := make([]uint32, totalHist)
	for i := range histData {
		histData[i] = uint32(rng.Int31())
	}
	sortData := make([]uint32, warps*hsSortN)
	for i := range sortData {
		sortData[i] = uint32(rng.Int31())
	}
	wantHist := make([]uint32, hsBuckets)
	for _, v := range histData {
		wantHist[v>>27]++
	}
	wantSorted := make([]uint32, len(sortData))
	copy(wantSorted, sortData)
	for w := 0; w < warps; w++ {
		tile := wantSorted[w*hsSortN : (w+1)*hsSortN]
		sort.Slice(tile, func(i, j int) bool { return int32(tile[i]) < int32(tile[j]) })
	}
	ldsShare := (12 << 10) / p.WarpsPerBlock
	wl := &Workload{
		Abbrev: "HS", FullName: "Hybrid Sort", Prog: prog,
		PaperVRegKB: 7.0, PaperSRegKB: 0.141, PaperLDSKB: 12.0,
		PaperPreemptUs: 304.0, PaperResumeUs: 280.7,
		NumBlocks: p.NumBlocks, WarpsPerBlock: p.WarpsPerBlock,
	}
	return wl.bind(p, func(wl *Workload, dataBase int) {
		sortBase := dataBase + totalHist*4
		outBase := sortBase + warps*hsSortN*4
		histBase := outBase + warps*hsSortN*4
		wl.Init = func(d *sim.Device) error {
			if err := d.WriteWords(dataBase, histData); err != nil {
				return err
			}
			if err := d.WriteWords(sortBase, sortData); err != nil {
				return err
			}
			return d.WriteWords(histBase, make([]uint32, hsBuckets))
		}
		wl.WarpSetup = func(w *sim.Warp) {
			w.SRegs[4] = warpTileBase(dataBase, w.ID, histPerWarp)
			w.SRegs[5] = uint64(p.ItersPerWarp)
			w.SRegs[6] = uint64(histBase)
			w.SRegs[7] = warpTileBase(sortBase, w.ID, hsSortN)
			w.SRegs[8] = warpTileBase(outBase, w.ID, hsSortN)
			w.SRegs[9] = uint64(w.WarpInBlk * ldsShare)
		}
		wl.Verify = func(d *sim.Device) error {
			if err := checkWords(d, histBase, wantHist, "HS histogram"); err != nil {
				return err
			}
			return checkWords(d, outBase, wantSorted, "HS sorted tiles")
		}
	}), nil
}

// NewMS builds one Merge Sort pass (10.5 KB vregs): each lane merges
// four independent pairs of sorted runs (with +Inf sentinels) using
// predicated head selection, the classic SIMT branch-free merge.
func NewMS(p Params) (*Workload, error) {
	const units = 4
	runLen := 8 * p.ItersPerWarp
	warps := p.NumBlocks * p.WarpsPerBlock
	pairs := warps * isa.WarpSize * units
	runStride := runLen + 1 // +1 sentinel

	b := isa.NewBuilder("ms", 42, 36, 0)
	// ABI: s4=A runs tile, s5=B runs tile, s6=out tile, s7=2*runLen.
	// Unit u's pair index = lane*units + u.
	b.I(isa.VLaneID, rg(vr(0)))
	for u := 0; u < units; u++ {
		pa, pb, po := vr(1+u*3), vr(2+u*3), vr(3+u*3)
		b.NoOvf(isa.VMul, rg(pa), rg(vr(0)), im(units*runStride*4))
		b.NoOvf(isa.VAdd, rg(pa), rg(pa), im(u*runStride*4))
		b.NoOvf(isa.VAdd, rg(pa), rg(pa), rg(sr(4)))
		b.NoOvf(isa.VAdd, rg(pb), rg(pa), rg(sr(5))).Comment("B mirrors A layout")
		b.NoOvf(isa.VMul, rg(po), rg(vr(0)), im(units*2*runLen*4))
		b.NoOvf(isa.VAdd, rg(po), rg(po), im(u*2*runLen*4))
		b.NoOvf(isa.VAdd, rg(po), rg(po), rg(sr(6)))
	}
	b.I(isa.SMov, rg(sr(8)), rg(sr(7))).Comment("steps = 2*runLen")
	b.Label("mergeloop")
	for u := 0; u < units; u++ {
		pa, pb, po := vr(1+u*3), vr(2+u*3), vr(3+u*3)
		a, bv, out, delta := vr(13+u*4), vr(14+u*4), vr(15+u*4), vr(16+u*4)
		b.I(isa.VGLoad, rg(a), rg(pa), im(0)).Space(spaceA)
		b.I(isa.VGLoad, rg(bv), rg(pb), im(0)).Space(spaceB)
		b.I(isa.VCmpLeF, rg(a), rg(bv)).Comment("take A on ties: stable")
		b.I(isa.VCndMask, rg(out), rg(bv), rg(a))
		b.I(isa.VGStore, rg(po), rg(out), im(0)).Space(spaceC)
		b.I(isa.VCndMask, rg(delta), im(0), im(4))
		b.NoOvf(isa.VAdd, rg(pa), rg(pa), rg(delta))
		b.I(isa.VCndMask, rg(delta), im(4), im(0))
		b.NoOvf(isa.VAdd, rg(pb), rg(pb), rg(delta))
		b.NoOvf(isa.VAdd, rg(po), rg(po), im(4))
	}
	b.I(isa.SSub, rg(sr(8)), rg(sr(8)), im(1))
	b.I(isa.SCmpGt, rg(sr(8)), im(0))
	b.Branch(isa.SCBranchSCC1, "mergeloop")
	b.I(isa.SEndpgm)
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(p.Seed))
	inf := f32(float32(math.Inf(1)))
	makeRuns := func() []uint32 {
		runs := make([]uint32, pairs*runStride)
		for pr := 0; pr < pairs; pr++ {
			vals := make([]float32, runLen)
			for i := range vals {
				vals[i] = rng.Float32()*2 - 1
			}
			slices.Sort(vals)
			for i, v := range vals {
				runs[pr*runStride+i] = f32(v)
			}
			runs[pr*runStride+runLen] = inf
		}
		return runs
	}
	runsA := makeRuns()
	runsB := makeRuns()
	want := make([]uint32, pairs*2*runLen)
	for pr := 0; pr < pairs; pr++ {
		ai, bi := 0, 0
		for s := 0; s < 2*runLen; s++ {
			av := asF(runsA[pr*runStride+ai])
			bv := asF(runsB[pr*runStride+bi])
			if av <= bv {
				want[pr*2*runLen+s] = f32(av)
				ai++
			} else {
				want[pr*2*runLen+s] = f32(bv)
				bi++
			}
		}
	}
	wl := &Workload{
		Abbrev: "MS", FullName: "Merge Sort", Prog: prog,
		PaperVRegKB: 10.5, PaperSRegKB: 0.141, PaperLDSKB: 0,
		PaperPreemptUs: 119.0, PaperResumeUs: 93.8,
		NumBlocks: p.NumBlocks, WarpsPerBlock: p.WarpsPerBlock,
	}
	return wl.bind(p, func(wl *Workload, aBase int) {
		bBase := aBase + pairs*runStride*4
		outBase := bBase + pairs*runStride*4
		wl.Init = func(d *sim.Device) error {
			if err := d.WriteWords(aBase, runsA); err != nil {
				return err
			}
			return d.WriteWords(bBase, runsB)
		}
		wl.WarpSetup = func(w *sim.Warp) {
			tile := w.ID * isa.WarpSize * units
			w.SRegs[4] = uint64(aBase + tile*runStride*4)
			w.SRegs[5] = uint64(uint32(bBase - aBase)) // B offset from A ptr
			w.SRegs[6] = uint64(outBase + tile*2*runLen*4)
			w.SRegs[7] = uint64(2 * runLen)
		}
		wl.Verify = func(d *sim.Device) error { return checkWords(d, outBase, want, "MS") }
	}), nil
}
