package kernels

import (
	"math/rand"

	"ctxback/internal/isa"
	"ctxback/internal/sim"
)

// NewGE builds one Gaussian Elimination step (8.0 KB vregs): for pivot
// row 0, every warp updates a tile of rows out-of-place:
// out[i][j] = A[i][j] - (A[i][0] / A[0][0]) * A[0][j], unroll 4 rows.
func NewGE(p Params) (*Workload, error) {
	const (
		unroll = 4
		nCols  = isa.WarpSize // one column per lane
	)
	rowsPerWarp := p.ItersPerWarp * unroll
	warps := p.NumBlocks * p.WarpsPerBlock
	totalRows := warps*rowsPerWarp + 1 // +1 pivot row

	b := isa.NewBuilder("ge", 30, 36, 0)
	// ABI: s4=first row addr of warp tile (in A), s5=out tile addr,
	// s6=iters, s7=pivot row addr.
	b.I(isa.VLaneID, rg(vr(0)))
	b.NoOvf(isa.VShl, rg(vr(1)), rg(vr(0)), im(2))
	// Pivot row element for this lane and the inverted pivot head.
	b.NoOvf(isa.VAdd, rg(vr(2)), rg(vr(1)), rg(sr(7)))
	b.I(isa.VGLoad, rg(vr(3)), rg(vr(2)), im(0)).Space(spaceA).Comment("pivot[j]")
	b.I(isa.VMov, rg(vr(4)), rg(sr(7)))
	b.I(isa.VGLoad, rg(vr(5)), rg(vr(4)), im(0)).Space(spaceA).Comment("pivot[0] broadcast")
	b.I(isa.VRcpF, rg(vr(5)), rg(vr(5)))
	b.NoOvf(isa.VAdd, rg(vr(6)), rg(vr(1)), rg(sr(4))).Comment("row ptr")
	b.NoOvf(isa.VAdd, rg(vr(7)), rg(vr(1)), rg(sr(5))).Comment("out ptr")
	b.I(isa.VMov, rg(vr(8)), rg(sr(4))).Comment("row head ptr (col 0)")
	b.Label("loop")
	for u := 0; u < unroll; u++ {
		rowOff := u * nCols * 4
		head, data, factor, res := vr(9+u), vr(13+u), vr(17+u), vr(21+u)
		b.I(isa.VGLoad, rg(head), rg(vr(8)), im(rowOff)).Space(spaceA).Comment("A[i][0]")
		b.I(isa.VGLoad, rg(data), rg(vr(6)), im(rowOff)).Space(spaceA)
		b.I(isa.VMulF, rg(factor), rg(head), rg(vr(5)))
		b.I(isa.VMulF, rg(res), rg(factor), rg(vr(3)))
		b.I(isa.VSubF, rg(res), rg(data), rg(res))
		b.I(isa.VGStore, rg(vr(7)), rg(res), im(rowOff)).Space(spaceC)
	}
	b.NoOvf(isa.VAdd, rg(vr(6)), rg(vr(6)), im(unroll*nCols*4))
	b.NoOvf(isa.VAdd, rg(vr(7)), rg(vr(7)), im(unroll*nCols*4))
	b.NoOvf(isa.VAdd, rg(vr(8)), rg(vr(8)), im(unroll*nCols*4))
	b.I(isa.SSub, rg(sr(6)), rg(sr(6)), im(1))
	b.I(isa.SCmpGt, rg(sr(6)), im(0))
	b.Branch(isa.SCBranchSCC1, "loop")
	b.I(isa.SEndpgm)
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(p.Seed))
	a := randFloats(rng, totalRows*nCols)
	a[0] = f32(1.5) // well-conditioned pivot
	want := make([]uint32, (totalRows-1)*nCols)
	rcpPivot := 1 / asF(a[0])
	for i := 1; i < totalRows; i++ {
		factor := asF(a[i*nCols]) * rcpPivot
		for j := 0; j < nCols; j++ {
			res := factor * asF(a[j])
			want[(i-1)*nCols+j] = f32(asF(a[i*nCols+j]) - res)
		}
	}
	wl := &Workload{
		Abbrev: "GE", FullName: "Gaussian Elimination", Prog: prog,
		PaperVRegKB: 8.0, PaperSRegKB: 0.141, PaperLDSKB: 0,
		PaperPreemptUs: 92.3, PaperResumeUs: 74.0,
		NumBlocks: p.NumBlocks, WarpsPerBlock: p.WarpsPerBlock,
	}
	return wl.bind(p, func(wl *Workload, aBase int) {
		outBase := aBase + totalRows*nCols*4
		wl.Init = func(d *sim.Device) error { return d.WriteWords(aBase, a) }
		wl.WarpSetup = func(w *sim.Warp) {
			firstRow := 1 + w.ID*rowsPerWarp
			w.SRegs[4] = uint64(aBase + firstRow*nCols*4)
			w.SRegs[5] = uint64(outBase + w.ID*rowsPerWarp*nCols*4)
			w.SRegs[6] = uint64(p.ItersPerWarp)
			w.SRegs[7] = uint64(aBase)
		}
		wl.Verify = func(d *sim.Device) error { return checkWords(d, outBase, want, "GE") }
	}), nil
}

// kmCentroids returns the K x D centroid table used by the KM workload.
func kmCentroids() [][]float32 {
	return [][]float32{
		{0.1, 0.2, -0.3, 0.4},
		{-0.5, 0.1, 0.7, -0.2},
		{0.9, -0.8, 0.2, 0.0},
		{-0.1, -0.4, -0.6, 0.5},
		{0.3, 0.6, 0.1, -0.9},
	}
}

// NewKM builds K-Means assignment (13.0 KB vregs): D=4, K=5 centroids in
// scalar registers, 7 points per lane per iteration scheduled
// load-all / compute-all / store-all (the ILP-oriented shape -O3
// produces), which keeps ~45 registers live mid-iteration.
func NewKM(p Params) (*Workload, error) {
	const (
		dims     = 4
		unrollPt = 7
	)
	cents := kmCentroids()
	k := len(cents)
	ptsPerIter := unrollPt * isa.WarpSize
	ptsPerWarp := p.ItersPerWarp * ptsPerIter
	warps := p.NumBlocks * p.WarpsPerBlock
	totalPts := warps * ptsPerWarp

	// Register map: v0 lane, v1 point ptr, v2 label ptr;
	// dims v3..v30 (7x4), best v31..v37, bestIdx v38..v44,
	// scratch acc v45, diff v46.
	b := isa.NewBuilder("km", 49, 36, 0)
	// ABI: s4=points tile, s5=labels tile, s6=iters,
	// s16..s16+K*D-1 = centroid coordinates (row-major).
	b.I(isa.VLaneID, rg(vr(0)))
	b.NoOvf(isa.VShl, rg(vr(1)), rg(vr(0)), im(4)).Comment("lane*D*4")
	b.NoOvf(isa.VAdd, rg(vr(1)), rg(vr(1)), rg(sr(4))).Comment("point ptr")
	b.NoOvf(isa.VShl, rg(vr(2)), rg(vr(0)), im(2))
	b.NoOvf(isa.VAdd, rg(vr(2)), rg(vr(2)), rg(sr(5))).Comment("label ptr")
	b.Label("loop")
	// Phase 1: load every point's coordinates.
	for u := 0; u < unrollPt; u++ {
		x := 3 + u*dims
		ptOff := u * isa.WarpSize * dims * 4
		for dIdx := 0; dIdx < dims; dIdx++ {
			b.I(isa.VGLoad, rg(vr(x+dIdx)), rg(vr(1)), im(ptOff+dIdx*4)).Space(spaceA)
		}
	}
	// Phase 2: distances and argmin per point.
	const acc, diff = 45, 46
	for u := 0; u < unrollPt; u++ {
		x := 3 + u*dims
		best, bestIdx := 31+u, 38+u
		b.I(isa.VMov, rg(vr(best)), fi(1e30))
		b.I(isa.VMov, rg(vr(bestIdx)), im(0))
		for c := 0; c < k; c++ {
			b.I(isa.VSubF, rg(vr(diff)), rg(vr(x)), rg(sr(16+c*dims)))
			b.I(isa.VMulF, rg(vr(acc)), rg(vr(diff)), rg(vr(diff)))
			for dIdx := 1; dIdx < dims; dIdx++ {
				b.I(isa.VSubF, rg(vr(diff)), rg(vr(x+dIdx)), rg(sr(16+c*dims+dIdx)))
				b.I(isa.VMadF, rg(vr(acc)), rg(vr(diff)), rg(vr(diff)), rg(vr(acc)))
			}
			b.I(isa.VCmpLtF, rg(vr(acc)), rg(vr(best)))
			b.I(isa.VCndMask, rg(vr(bestIdx)), rg(vr(bestIdx)), im(c))
			b.I(isa.VMinF, rg(vr(best)), rg(vr(best)), rg(vr(acc)))
		}
	}
	// Phase 3: store all labels.
	for u := 0; u < unrollPt; u++ {
		b.I(isa.VGStore, rg(vr(2)), rg(vr(38+u)), im(u*isa.WarpSize*4)).Space(spaceC)
	}
	b.NoOvf(isa.VAdd, rg(vr(1)), rg(vr(1)), im(ptsPerIter*dims*4))
	b.NoOvf(isa.VAdd, rg(vr(2)), rg(vr(2)), im(ptsPerIter*4))
	b.I(isa.SSub, rg(sr(6)), rg(sr(6)), im(1))
	b.I(isa.SCmpGt, rg(sr(6)), im(0))
	b.Branch(isa.SCBranchSCC1, "loop")
	b.I(isa.SEndpgm)
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(p.Seed))
	pts := randFloats(rng, totalPts*dims)
	want := make([]uint32, totalPts)
	for i := 0; i < totalPts; i++ {
		best := float32(1e30)
		bestIdx := uint32(0)
		for c := 0; c < k; c++ {
			d0 := asF(pts[i*dims]) - cents[c][0]
			acc := d0 * d0
			for dIdx := 1; dIdx < dims; dIdx++ {
				dd := asF(pts[i*dims+dIdx]) - cents[c][dIdx]
				acc = dd*dd + acc
			}
			if acc < best {
				bestIdx = uint32(c)
			}
			if acc < best {
				best = acc
			}
		}
		want[i] = bestIdx
	}
	wl := &Workload{
		Abbrev: "KM", FullName: "K-Means", Prog: prog,
		PaperVRegKB: 13.0, PaperSRegKB: 0.141, PaperLDSKB: 0,
		PaperPreemptUs: 327.4, PaperResumeUs: 283.1,
		NumBlocks: p.NumBlocks, WarpsPerBlock: p.WarpsPerBlock,
	}
	return wl.bind(p, func(wl *Workload, ptsBase int) {
		lblBase := ptsBase + totalPts*dims*4
		wl.Init = func(d *sim.Device) error { return d.WriteWords(ptsBase, pts) }
		wl.WarpSetup = func(w *sim.Warp) {
			w.SRegs[4] = warpTileBase(ptsBase, w.ID, ptsPerWarp*dims)
			w.SRegs[5] = warpTileBase(lblBase, w.ID, ptsPerWarp)
			w.SRegs[6] = uint64(p.ItersPerWarp)
			for c := 0; c < k; c++ {
				for dIdx := 0; dIdx < dims; dIdx++ {
					w.SRegs[16+c*dims+dIdx] = uint64(f32(cents[c][dIdx]))
				}
			}
		}
		wl.Verify = func(d *sim.Device) error { return checkWords(d, lblBase, want, "KM") }
	}), nil
}
