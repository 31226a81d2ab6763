package sched

import (
	"errors"
	"testing"

	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
)

// TestPlacementProbesPredictDevice cross-checks the device's placement
// probes, which the scheduler consults at every decision, against what
// the device then does. On a one-SM device, for every ordered pair of
// pool kernels, victim A runs its occupancy-filled grid and newcomer B
// displaces it, once early and once when A's first warp retires (a done
// warp keeps its block's slots and LDS):
//
//   - CanDisplace predicts whether B places a block once A has saved;
//   - CanHostBlock predicts whether a fresh one-warp launch of A beside
//     the running B places its block;
//   - CanResume predicts whether Resume succeeds, while B runs and again
//     after B (and the fresh launch, if it placed) complete.
//
// Each outcome is also recounted independently of the simulator's
// tally (overfull): what placed or resumed fits the SM, and what did
// not would have overfilled it.
func TestPlacementProbesPredictDevice(t *testing.T) {
	pool, err := DefaultKernelPool()
	if err != nil {
		t.Fatal(err)
	}
	cfg := testSchedConfig()
	cfg.Dev.NumSMs = 1
	cfg.Params.ItersPerWarp = 2
	cfg.SlabBytes = 16 << 20
	b := newBuilds(cfg)
	seen := map[string][2]int{} // probe -> [false, true] outcomes
	note := func(probe string, ok bool) {
		c := seen[probe]
		if ok {
			c[1]++
		} else {
			c[0]++
		}
		seen[probe] = c
	}
	signals := []struct {
		name string
		at   func(d *sim.Device, a *sim.Launch) bool
	}{
		{"early", func(d *sim.Device, _ *sim.Launch) bool { return d.Stats.KernelInstrs >= 64 }},
		{"first-retire", func(_ *sim.Device, a *sim.Launch) bool { return anyRetired(a) }},
	}
	for _, va := range pool {
		for _, nb := range pool {
			for _, sig := range signals {
				pair := va + "/" + nb + "@" + sig.name
				d, err := sim.NewDevice(cfg.Dev)
				if err != nil {
					t.Fatal(err)
				}
				mux := newMux(preempt.Baseline)
				d.AttachRuntime(mux)
				register := func(wl *kernels.Workload, err error) *kernels.Workload {
					if err != nil {
						t.Fatal(err)
					}
					tech, err := preempt.New(preempt.Baseline, wl.Prog)
					if err != nil {
						t.Fatal(err)
					}
					mux.add(wl.Prog, tech)
					return wl
				}
				launch := func(wl *kernels.Workload) *sim.Launch {
					l, err := wl.Launch(d)
					if err != nil {
						t.Fatal(err)
					}
					return l
				}
				run := func(cond func() bool) {
					if err := d.RunUntil(cond, cfg.MaxCycles); err != nil {
						t.Fatalf("%s: %v", pair, err)
					}
				}
				// fits checks an outcome against the recount: the SM holds
				// what placed, and would overflow with what did not.
				fits := func(what string, ok bool, missing []*sim.Warp) {
					if over := overfull(d, missing); over == ok {
						t.Errorf("%s: %s=%v but the recount says overfull=%v", pair, what, ok, over)
					}
				}
				resume := func(ep *sim.Episode, when string) bool {
					pred := d.CanResume(ep)
					err := d.Resume(ep)
					if pred != (err == nil) {
						t.Errorf("%s %s: CanResume=%v but Resume returned %v", pair, when, pred, err)
					}
					if err == nil {
						fits("Resume "+when, true, nil)
					} else {
						fits("Resume "+when, false, ep.Victims)
					}
					note("CanResume", err == nil)
					return err == nil
				}

				a := launch(register(b.at(va, 0)))
				run(func() bool { return sig.at(d, a) })
				wb := register(b.at(nb, 1))
				pred := d.CanDisplace(0, a, wb.Prog, wb.WarpsPerBlock)
				ep, err := d.Preempt(0, mux)
				if errors.Is(err, sim.ErrDrained) {
					continue
				} else if err != nil {
					t.Fatal(err)
				}
				lb := launch(wb)
				run(ep.Saved)
				if got := placed(lb); got != pred {
					t.Errorf("%s: CanDisplace=%v but the newcomer placed a block: %v", pair, pred, got)
				}
				fits("CanDisplace", pred, firstBlock(lb, pred))
				note("CanDisplace", pred)
				if !placed(lb) {
					resume(ep, "with the newcomer unplaced")
					continue
				}
				resumed := resume(ep, "beside the newcomer")
				single := kernels.Params{NumBlocks: 1, WarpsPerBlock: 1, ItersPerWarp: cfg.Params.ItersPerWarp,
					Seed: cfg.Params.Seed, MemBase: slabBase + 2*cfg.SlabBytes}
				wc := register(kernels.ByAbbrev(va, single))
				pred = d.CanHostBlock(0, wc.Prog, wc.WarpsPerBlock)
				lc := launch(wc)
				if got := placed(lc); got != pred {
					t.Errorf("%s: CanHostBlock=%v but the launch placed a block: %v", pair, pred, got)
				}
				fits("CanHostBlock", pred, firstBlock(lc, pred))
				note("CanHostBlock", pred)
				if resumed {
					continue
				}
				// A launch that placed nothing stays pending: only its own
				// retirements and episode boundaries redispatch it.
				settled := func() bool { return lb.Done() && (lc.Done() || !placed(lc)) }
				run(settled)
				if !settled() {
					t.Fatalf("%s: the newcomer stalled beside the parked victim", pair)
				}
				resume(ep, "after the newcomer completed")
			}
		}
	}
	t.Logf("probe outcomes [false true] over %d pairs x %d signals: %v", len(pool)*len(pool), len(signals), seen)
	for _, probe := range []string{"CanHostBlock", "CanResume"} {
		if c := seen[probe]; c[0] == 0 || c[1] == 0 {
			t.Errorf("%s saw only one outcome %v: the cross-check lost its power", probe, c)
		}
	}
}

// anyRetired reports whether some warp of l has executed s_endpgm.
func anyRetired(l *sim.Launch) bool {
	for _, w := range l.Warps {
		if w.State == sim.WarpDone {
			return true
		}
	}
	return false
}

// placed reports whether some block of l has been dispatched to an SM.
func placed(l *sim.Launch) bool {
	for _, w := range l.Warps {
		if w.SM != nil {
			return true
		}
	}
	return false
}

// firstBlock is the first block of l when it did not place (the demand
// the SM refused), or nil.
func firstBlock(l *sim.Launch, placed bool) []*sim.Warp {
	if placed {
		return nil
	}
	return l.Warps[:l.Spec.WarpsPerBlock]
}

// overfull recounts what SM 0 holds without the simulator's tally:
// warp slots and register bytes of its resident warps plus extra, and
// each block's LDS once. It reports whether any SM limit is exceeded.
func overfull(d *sim.Device, extra []*sim.Warp) bool {
	var warps, vregs, sregs, lds int
	blocks := map[*sim.LDSBlock]bool{}
	add := func(w *sim.Warp) {
		warps++
		vregs += w.Prog.VRegContextBytes()
		sregs += w.Prog.SRegContextBytes()
		if !blocks[w.LDS] {
			blocks[w.LDS] = true
			lds += w.Prog.LDSBytes
		}
	}
	for _, w := range d.SMs[0].Warps {
		if w.State != sim.WarpPreempted {
			add(w)
		}
	}
	for _, w := range extra {
		add(w)
	}
	c := d.Cfg
	return warps > c.MaxWarpsPerSM || vregs > c.VRegFileBytes || sregs > c.SRegFileBytes || lds > c.LDSBytesPerSM
}
