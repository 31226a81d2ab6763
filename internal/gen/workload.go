package gen

import (
	"fmt"
	"slices"

	"ctxback/internal/kernels"
	"ctxback/internal/sim"
)

// CheckDevice compares the device's entire memory against the golden
// interpreter's image — every byte, not just the output tiles, so stray
// writes anywhere are caught. It compares in place, page by page: a page
// with no storage of its own reads as zero, so one over a page the image
// holds only zeros in matches without a look.
func (p *Program) CheckDevice(d *sim.Device) error {
	want, err := p.Expected(d.Mem.Words())
	if err != nil {
		return fmt.Errorf("gen seed %d: golden interpreter: %w", p.Seed, err)
	}
	if p.expectedZero == nil {
		p.expectedZero = make([]bool, (len(want)+sim.PageWords-1)/sim.PageWords)
		for i := range p.expectedZero {
			pg := want[i*sim.PageWords : min((i+1)*sim.PageWords, len(want))]
			p.expectedZero[i] = !slices.ContainsFunc(pg, func(v uint32) bool { return v != 0 })
		}
	}
	bad, first := 0, -1
	d.Mem.Runs(0, len(want), func(off int, run []uint32, owned bool) {
		if !owned && p.expectedZero[off/sim.PageWords] {
			return
		}
		for i, got := range run {
			if got != want[off+i] {
				if first < 0 {
					first = off + i
				}
				bad++
			}
		}
	})
	if bad > 0 {
		return fmt.Errorf("gen seed %d: %d words differ from golden interpreter; first mem[%#x] = %#x, want %#x",
			p.Seed, bad, first*4, d.Mem.Load(first), want[first])
	}
	return nil
}

// Workload adapts the generated program to the kernels.Workload shape,
// so every harness oracle built for the Table I kernels (chaos sweep,
// episode measurement, snapshot capture helpers) runs unmodified over
// the generated corpus. Verify checks the full memory image against the
// golden interpreter.
func (p *Program) Workload() *kernels.Workload {
	return &kernels.Workload{
		Abbrev:        fmt.Sprintf("GEN-%d", p.Seed),
		FullName:      fmt.Sprintf("generated program (seed %d)", p.Seed),
		Prog:          p.Prog,
		NumBlocks:     p.NumBlocks,
		WarpsPerBlock: p.WarpsPerBlock,
		Init:          p.Init,
		WarpSetup:     p.Setup,
		Verify:        p.CheckDevice,
	}
}
