package kernels

import (
	"math/rand"

	"ctxback/internal/isa"
	"ctxback/internal/sim"
)

// cpuTreeReduce mirrors the within-warp LDS tree reduction the DOT
// kernel performs (strides 32..1 folding the upper half onto the lower).
func cpuTreeReduce(partials []float32) float32 {
	vals := make([]float32, len(partials))
	copy(vals, partials)
	for stride := isa.WarpSize / 2; stride > 0; stride /= 2 {
		for l := 0; l < stride; l++ {
			vals[l] = vals[l] + vals[l+stride]
		}
	}
	return vals[0]
}

// NewDOT builds Dot Product (6.0 KB vregs, 1 KB LDS): per-warp partial
// dot products accumulated per lane, then a within-warp LDS tree
// reduction; lane 0 writes the warp's result.
func NewDOT(p Params) (*Workload, error) {
	perWarp := p.ItersPerWarp * isa.WarpSize * 2 // unroll 2
	warps := p.NumBlocks * p.WarpsPerBlock
	total := warps * perWarp

	b := isa.NewBuilder("dot", 22, 36, 1024)
	// ABI: s4=a tile, s5=b tile, s6=iters, s7=LDS share base, s8=out addr.
	b.I(isa.VLaneID, rg(vr(0)))
	b.NoOvf(isa.VShl, rg(vr(1)), rg(vr(0)), im(2))
	b.NoOvf(isa.VAdd, rg(vr(2)), rg(vr(1)), rg(sr(4)))
	b.NoOvf(isa.VAdd, rg(vr(3)), rg(vr(1)), rg(sr(5)))
	b.I(isa.VMov, rg(vr(4)), fi(0)).Comment("acc0")
	b.I(isa.VMov, rg(vr(5)), fi(0)).Comment("acc1")
	b.Label("loop")
	b.I(isa.VGLoad, rg(vr(6)), rg(vr(2)), im(0)).Space(spaceA)
	b.I(isa.VGLoad, rg(vr(7)), rg(vr(3)), im(0)).Space(spaceB)
	b.I(isa.VGLoad, rg(vr(8)), rg(vr(2)), im(256)).Space(spaceA)
	b.I(isa.VGLoad, rg(vr(9)), rg(vr(3)), im(256)).Space(spaceB)
	b.I(isa.VMadF, rg(vr(4)), rg(vr(6)), rg(vr(7)), rg(vr(4)))
	b.I(isa.VMadF, rg(vr(5)), rg(vr(8)), rg(vr(9)), rg(vr(5)))
	b.NoOvf(isa.VAdd, rg(vr(2)), rg(vr(2)), im(512))
	b.NoOvf(isa.VAdd, rg(vr(3)), rg(vr(3)), im(512))
	b.I(isa.SSub, rg(sr(6)), rg(sr(6)), im(1))
	b.I(isa.SCmpGt, rg(sr(6)), im(0))
	b.Branch(isa.SCBranchSCC1, "loop")
	b.I(isa.VAddF, rg(vr(4)), rg(vr(4)), rg(vr(5)))
	// LDS tree reduce within the warp's share.
	b.NoOvf(isa.VAdd, rg(vr(10)), rg(vr(1)), rg(sr(7))).Comment("lds slot")
	b.I(isa.VLStore, rg(vr(10)), rg(vr(4)), im(0))
	b.I(isa.SMov, rg(sr(9)), im(isa.WarpSize/2))
	b.Label("reduce")
	b.I(isa.VCmpLtI, rg(vr(0)), rg(sr(9)))
	b.I(isa.SAndSaveExecVCC, rg(sr(10)))
	b.I(isa.SShl, rg(sr(11)), rg(sr(9)), im(2))
	b.NoOvf(isa.VAdd, rg(vr(11)), rg(vr(10)), rg(sr(11)))
	b.I(isa.VLLoad, rg(vr(12)), rg(vr(11)), im(0))
	b.I(isa.VAddF, rg(vr(4)), rg(vr(4)), rg(vr(12)))
	b.I(isa.VLStore, rg(vr(10)), rg(vr(4)), im(0))
	b.I(isa.SSetExec, rg(sr(10)))
	b.I(isa.SShr, rg(sr(9)), rg(sr(9)), im(1))
	b.I(isa.SCmpGt, rg(sr(9)), im(0))
	b.Branch(isa.SCBranchSCC1, "reduce")
	// Lane 0 writes the warp sum.
	b.I(isa.VCmpEqI, rg(vr(0)), im(0))
	b.I(isa.SAndSaveExecVCC, rg(sr(10)))
	b.I(isa.VMov, rg(vr(13)), rg(sr(8)))
	b.I(isa.VGStore, rg(vr(13)), rg(vr(4)), im(0)).Space(spaceC)
	b.I(isa.SSetExec, rg(sr(10)))
	b.I(isa.SEndpgm)
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(p.Seed))
	a := randFloats(rng, total)
	bb := randFloats(rng, total)
	want := make([]uint32, warps)
	for wid := 0; wid < warps; wid++ {
		var part [isa.WarpSize]float32
		base := wid * perWarp
		for lane := 0; lane < isa.WarpSize; lane++ {
			var acc0, acc1 float32
			for it := 0; it < p.ItersPerWarp; it++ {
				i0 := base + it*2*isa.WarpSize + lane
				i1 := i0 + isa.WarpSize
				acc0 = asF(a[i0])*asF(bb[i0]) + acc0
				acc1 = asF(a[i1])*asF(bb[i1]) + acc1
			}
			part[lane] = acc0 + acc1
		}
		want[wid] = f32(cpuTreeReduce(part[:]))
	}
	ldsShare := 1024 / p.WarpsPerBlock
	wl := &Workload{
		Abbrev: "DOT", FullName: "Dot Product", Prog: prog,
		PaperVRegKB: 6.0, PaperSRegKB: 0.141, PaperLDSKB: 1.0,
		PaperPreemptUs: 138.6, PaperResumeUs: 101.0,
		NumBlocks: p.NumBlocks, WarpsPerBlock: p.WarpsPerBlock,
	}
	return wl.bind(p, func(wl *Workload, aBase int) {
		bBase := aBase + total*4
		outBase := bBase + total*4
		wl.Init = func(d *sim.Device) error {
			if err := d.WriteWords(aBase, a); err != nil {
				return err
			}
			return d.WriteWords(bBase, bb)
		}
		wl.WarpSetup = func(w *sim.Warp) {
			w.SRegs[4] = warpTileBase(aBase, w.ID, perWarp)
			w.SRegs[5] = warpTileBase(bBase, w.ID, perWarp)
			w.SRegs[6] = uint64(p.ItersPerWarp)
			w.SRegs[7] = uint64(w.WarpInBlk * ldsShare)
			w.SRegs[8] = uint64(outBase + w.ID*4)
		}
		wl.Verify = func(d *sim.Device) error { return checkWords(d, outBase, want, "DOT") }
	}), nil
}

// NewMV builds Matrix-Vector Multiply (13.0 KB vregs, 0.25 KB LDS):
// y = A·x with x (64 columns) cached in LDS by warp 0 of each block; each
// lane computes one row per tile with 16-way unrolled accumulation.
func NewMV(p Params) (*Workload, error) {
	const k = isa.WarpSize // columns
	const unroll = 16
	rowsPerWarpTile := isa.WarpSize
	rowsPerWarp := p.ItersPerWarp * rowsPerWarpTile
	warps := p.NumBlocks * p.WarpsPerBlock
	totalRows := warps * rowsPerWarp

	b := isa.NewBuilder("mv", 52, 36, 256)
	// ABI: s4=A tile base, s5=y tile base, s6=iters, s7=x base addr,
	// s8=warpInBlk.
	// Warp 0 of the block stages x into LDS.
	b.I(isa.VLaneID, rg(vr(0)))
	b.I(isa.SCmpEq, rg(sr(8)), im(0))
	b.Branch(isa.SCBranchSCC0, "xloaded")
	b.NoOvf(isa.VShl, rg(vr(1)), rg(vr(0)), im(2))
	b.NoOvf(isa.VAdd, rg(vr(2)), rg(vr(1)), rg(sr(7)))
	b.I(isa.VGLoad, rg(vr(3)), rg(vr(2)), im(0)).Space(spaceB)
	b.I(isa.VLStore, rg(vr(1)), rg(vr(3)), im(0))
	b.Label("xloaded")
	b.I(isa.SBarrier)
	// Row-tile loop: lane's row address = A + (tile*64+lane)*K*4.
	b.I(isa.VMov, rg(vr(1)), rg(sr(4)))
	b.NoOvf(isa.VShl, rg(vr(2)), rg(vr(0)), im(8)).Comment("lane*K*4, K=64")
	b.NoOvf(isa.VAdd, rg(vr(1)), rg(vr(1)), rg(vr(2)))
	b.NoOvf(isa.VShl, rg(vr(3)), rg(vr(0)), im(2))
	b.NoOvf(isa.VAdd, rg(vr(3)), rg(vr(3)), rg(sr(5))).Comment("y slot")
	b.Label("rowloop")
	// Zero 16 accumulators v4..v19.
	for j := 0; j < unroll; j++ {
		b.I(isa.VMov, rg(vr(4+j)), fi(0))
	}
	// 4 chunks of 16 columns, fully unrolled: A in v20..v35, x staged
	// into 16 distinct registers v36..v51 (all three 16-register groups
	// stay live through each chunk's MAD burst, the register pressure the
	// paper's 13 KB figure implies).
	for c := 0; c < k/unroll; c++ {
		for j := 0; j < unroll; j++ {
			col := c*unroll + j
			b.I(isa.VGLoad, rg(vr(20+j)), rg(vr(1)), im(col*4)).Space(spaceA)
		}
		for j := 0; j < unroll; j++ {
			col := c*unroll + j
			b.I(isa.VMov, rg(vr(2)), im(col*4))
			b.I(isa.VLLoad, rg(vr(36+j)), rg(vr(2)), im(0))
		}
		for j := 0; j < unroll; j++ {
			b.I(isa.VMadF, rg(vr(4+j)), rg(vr(20+j)), rg(vr(36+j)), rg(vr(4+j)))
		}
	}
	// Fold 16 accumulators.
	for j := 1; j < unroll; j++ {
		b.I(isa.VAddF, rg(vr(4)), rg(vr(4)), rg(vr(4+j)))
	}
	b.I(isa.VGStore, rg(vr(3)), rg(vr(4)), im(0)).Space(spaceC)
	b.NoOvf(isa.VAdd, rg(vr(1)), rg(vr(1)), im(isa.WarpSize*k*4))
	b.NoOvf(isa.VAdd, rg(vr(3)), rg(vr(3)), im(isa.WarpSize*4))
	b.I(isa.SSub, rg(sr(6)), rg(sr(6)), im(1))
	b.I(isa.SCmpGt, rg(sr(6)), im(0))
	b.Branch(isa.SCBranchSCC1, "rowloop")
	b.I(isa.SEndpgm)
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(p.Seed))
	x := randFloats(rng, k)
	a := randFloats(rng, totalRows*k)
	want := make([]uint32, totalRows)
	for row := 0; row < totalRows; row++ {
		var acc [unroll]float32
		for c := 0; c < k/unroll; c++ {
			for j := 0; j < unroll; j++ {
				col := c*unroll + j
				acc[j] = asF(a[row*k+col])*asF(x[col]) + acc[j]
			}
		}
		s := acc[0]
		for j := 1; j < unroll; j++ {
			s = s + acc[j]
		}
		want[row] = f32(s)
	}
	wl := &Workload{
		Abbrev: "MV", FullName: "Matrix-Vector Multiply", Prog: prog,
		PaperVRegKB: 13.0, PaperSRegKB: 0.141, PaperLDSKB: 0.25,
		PaperPreemptUs: 254.7, PaperResumeUs: 217.5,
		NumBlocks: p.NumBlocks, WarpsPerBlock: p.WarpsPerBlock,
	}
	return wl.bind(p, func(wl *Workload, xBase int) {
		aBase := xBase + k*4
		yBase := aBase + totalRows*k*4
		wl.Init = func(d *sim.Device) error {
			if err := d.WriteWords(xBase, x); err != nil {
				return err
			}
			return d.WriteWords(aBase, a)
		}
		wl.WarpSetup = func(w *sim.Warp) {
			w.SRegs[4] = warpTileBase(aBase, w.ID, rowsPerWarp*k)
			w.SRegs[5] = warpTileBase(yBase, w.ID, rowsPerWarp)
			w.SRegs[6] = uint64(p.ItersPerWarp)
			w.SRegs[7] = uint64(xBase)
			w.SRegs[8] = uint64(w.WarpInBlk)
		}
		wl.Verify = func(d *sim.Device) error { return checkWords(d, yBase, want, "MV") }
	}), nil
}

// NewMM builds Matrix-Matrix Multiply (13.0 KB vregs, 0.5 KB LDS):
// each lane computes two 8-wide strips of C rows (lane and lane+64); the
// shared 8x8 B chunk is staged in the warp's LDS share every K step.
// Peak pressure: 16 accumulators + 16 A values + 8 staged B values.
func NewMM(p Params) (*Workload, error) {
	const (
		nCols  = 8 // C columns per strip
		kChunk = 8 // K rows staged per LDS refill
	)
	kDim := p.ItersPerWarp * kChunk
	rowsPerWarp := 2 * isa.WarpSize // two C rows per lane
	warps := p.NumBlocks * p.WarpsPerBlock
	totalRows := warps * rowsPerWarp

	b := isa.NewBuilder("mm", 49, 36, 512)
	// ABI: s4=A tile, s5=C tile, s6=kIters, s7=B base, s8=LDS share base,
	// s10=kDim.
	b.I(isa.VLaneID, rg(vr(0)))
	b.I(isa.SMul, rg(sr(9)), rg(sr(10)), im(4)).Comment("row stride bytes")
	b.NoOvf(isa.VMul, rg(vr(1)), rg(vr(0)), rg(sr(9)))
	b.NoOvf(isa.VAdd, rg(vr(1)), rg(vr(1)), rg(sr(4))).Comment("A row0 ptr")
	b.I(isa.SShl, rg(sr(11)), rg(sr(9)), im(6)).Comment("64 rows in bytes")
	b.NoOvf(isa.VAdd, rg(vr(2)), rg(vr(1)), rg(sr(11))).Comment("A row1 ptr")
	b.NoOvf(isa.VShl, rg(vr(3)), rg(vr(0)), im(2)).Comment("lane bytes")
	b.I(isa.SMov, rg(sr(12)), rg(sr(7))).Comment("B ptr")
	// Zero accumulators: v4..v11 row0, v12..v19 row1.
	for j := 0; j < 2*nCols; j++ {
		b.I(isa.VMov, rg(vr(4+j)), fi(0))
	}
	b.Label("kloop")
	// Stage the B chunk (kChunk x nCols = 64 floats) into the LDS share:
	// lane i loads element i.
	b.NoOvf(isa.VAdd, rg(vr(36)), rg(vr(3)), rg(sr(12)))
	b.I(isa.VGLoad, rg(vr(37)), rg(vr(36)), im(0)).Space(spaceB)
	b.NoOvf(isa.VAdd, rg(vr(36)), rg(vr(3)), rg(sr(8)))
	b.I(isa.VLStore, rg(vr(36)), rg(vr(37)), im(0))
	// A strips: kChunk values per row, fully unrolled.
	for kk := 0; kk < kChunk; kk++ {
		b.I(isa.VGLoad, rg(vr(20+kk)), rg(vr(1)), im(kk*4)).Space(spaceA)
		b.I(isa.VGLoad, rg(vr(28+kk)), rg(vr(2)), im(kk*4)).Space(spaceA)
	}
	for kk := 0; kk < kChunk; kk++ {
		// Load B row kk (8 cols) from LDS into v40..v47, then MAD both
		// row strips against it.
		for j := 0; j < nCols; j++ {
			b.I(isa.VMov, rg(vr(36)), rg(sr(8)))
			b.NoOvf(isa.VAdd, rg(vr(36)), rg(vr(36)), im((kk*nCols+j)*4))
			b.I(isa.VLLoad, rg(vr(40+j)), rg(vr(36)), im(0))
		}
		for j := 0; j < nCols; j++ {
			b.I(isa.VMadF, rg(vr(4+j)), rg(vr(20+kk)), rg(vr(40+j)), rg(vr(4+j)))
			b.I(isa.VMadF, rg(vr(12+j)), rg(vr(28+kk)), rg(vr(40+j)), rg(vr(12+j)))
		}
	}
	b.NoOvf(isa.VAdd, rg(vr(1)), rg(vr(1)), im(kChunk*4))
	b.NoOvf(isa.VAdd, rg(vr(2)), rg(vr(2)), im(kChunk*4))
	b.I(isa.SAdd, rg(sr(12)), rg(sr(12)), im(kChunk*nCols*4))
	b.I(isa.SSub, rg(sr(6)), rg(sr(6)), im(1))
	b.I(isa.SCmpGt, rg(sr(6)), im(0))
	b.Branch(isa.SCBranchSCC1, "kloop")
	// Write both strips: C row base = s5 + row*nCols*4.
	b.NoOvf(isa.VMul, rg(vr(38)), rg(vr(0)), im(nCols*4))
	b.NoOvf(isa.VAdd, rg(vr(38)), rg(vr(38)), rg(sr(5)))
	b.NoOvf(isa.VAdd, rg(vr(39)), rg(vr(38)), im(isa.WarpSize*nCols*4))
	for j := 0; j < nCols; j++ {
		b.I(isa.VGStore, rg(vr(38)), rg(vr(4+j)), im(j*4)).Space(spaceC)
		b.I(isa.VGStore, rg(vr(39)), rg(vr(12+j)), im(j*4)).Space(spaceC)
	}
	b.I(isa.SEndpgm)
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(p.Seed))
	a := randFloats(rng, totalRows*kDim)
	bm := randFloats(rng, kDim*nCols)
	want := make([]uint32, totalRows*nCols)
	for row := 0; row < totalRows; row++ {
		var acc [nCols]float32
		for kk := 0; kk < kDim; kk++ {
			for j := 0; j < nCols; j++ {
				acc[j] = asF(a[row*kDim+kk])*asF(bm[kk*nCols+j]) + acc[j]
			}
		}
		for j := 0; j < nCols; j++ {
			want[row*nCols+j] = f32(acc[j])
		}
	}
	ldsShare := 512 / p.WarpsPerBlock
	wl := &Workload{
		Abbrev: "MM", FullName: "Matrix-Matrix Multiply", Prog: prog,
		PaperVRegKB: 13.0, PaperSRegKB: 0.141, PaperLDSKB: 0.5,
		PaperPreemptUs: 214.6, PaperResumeUs: 152.7,
		NumBlocks: p.NumBlocks, WarpsPerBlock: p.WarpsPerBlock,
	}
	return wl.bind(p, func(wl *Workload, aBase int) {
		bBase := aBase + totalRows*kDim*4
		cBase := bBase + kDim*nCols*4
		wl.Init = func(d *sim.Device) error {
			if err := d.WriteWords(aBase, a); err != nil {
				return err
			}
			return d.WriteWords(bBase, bm)
		}
		wl.WarpSetup = func(w *sim.Warp) {
			w.SRegs[4] = warpTileBase(aBase, w.ID, rowsPerWarp*kDim)
			w.SRegs[5] = warpTileBase(cBase, w.ID, rowsPerWarp*nCols)
			w.SRegs[6] = uint64(p.ItersPerWarp)
			w.SRegs[7] = uint64(bBase)
			w.SRegs[8] = uint64(w.WarpInBlk * ldsShare)
			w.SRegs[10] = uint64(kDim)
		}
		wl.Verify = func(d *sim.Device) error { return checkWords(d, cBase, want, "MM") }
	}), nil
}
