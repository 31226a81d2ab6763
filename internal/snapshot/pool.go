package snapshot

import (
	"fmt"

	"ctxback/internal/sim"
)

// ctxCreateCyclesPerSlot models the per-warp-slot share of device
// context construction (allocator metadata, register-file zeroing, LDS
// carving). It is the simulator analogue of the ~1s CUDA context
// creation CRIU-style restores pay when they cannot reuse a pre-warmed
// context: cold restores charge it, warm-pool restores skip it.
const ctxCreateCyclesPerSlot = 200

// ColdSetupCycles is the construction cost a restore pays when no warm
// shell is available, as a deterministic function of the device model.
func ColdSetupCycles(cfg sim.Config) int64 {
	return int64(cfg.NumSMs) * int64(cfg.MaxWarpsPerSM) * ctxCreateCyclesPerSlot
}

// TransferCycles is the cycles needed to move encodedBytes onto the
// device over the context save/restore path (the same bandwidth the
// per-warp techniques pay, so snapshot restores and context flashbacks
// are directly comparable). A restore charges it wholeDeviceBytes.
func TransferCycles(cfg sim.Config, encodedBytes int) int64 {
	if cfg.CtxBytesPerCycle <= 0 {
		return 0
	}
	c := float64(encodedBytes) / cfg.CtxBytesPerCycle
	n := int64(c)
	if float64(n) < c {
		n++
	}
	return n
}

// wholeDeviceBytes is the image size a restore's transfer is charged
// for: the header and control sections as encoded (control), then the
// 18 + 4·words bytes of a dense memory section holding every word of
// the device, as CSNP version 1 wrote it. The image carries only the
// blocks the kernels wrote; the charge stays that of the whole device,
// so no simulated cycle moved with the format. It is the whole-device
// charge that the ROADMAP's bounded-serve item will replace with one
// for what a move carries.
func wholeDeviceBytes(control, words int) int {
	return control + 2 + 4 + 4 + 4*words + 8 // id, length, word count, words, checksum
}

// Pool keeps pre-initialized device shells so a restore can skip the
// construction cost. All shells share one Config; Get falls back to
// constructing a cold shell when the pool is dry, and reports which path
// it took so the harness can split the restore phase into restore-warm
// vs restore-cold.
type Pool struct {
	cfg    sim.Config
	shells []*sim.Device
}

// NewPool validates cfg and pre-builds n shells.
//
// Deprecated: the shards parameter is ignored. It selected the width of
// the epoch-parallel engine, which is gone; the benchmark still passes
// it, and the benchmark change that redefines its sharded-episode
// workload removes it.
func NewPool(cfg sim.Config, shards, n int) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("snapshot: pool size %d < 0", n)
	}
	p := &Pool{cfg: cfg}
	for i := 0; i < n; i++ {
		if err := p.Refill(1); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Config returns the pool's device model.
func (p *Pool) Config() sim.Config { return p.cfg }

// Warm returns the number of shells currently ready.
func (p *Pool) Warm() int { return len(p.shells) }

// Refill pre-builds n more shells (the background warming a production
// pool does between failovers).
func (p *Pool) Refill(n int) error {
	for i := 0; i < n; i++ {
		d, err := sim.NewDevice(p.cfg)
		if err != nil {
			return err
		}
		p.shells = append(p.shells, d)
	}
	return nil
}

// Get pops a warm shell, or builds a cold one when the pool is dry.
// warm reports which happened; a cold restore additionally charges
// ColdSetupCycles.
func (p *Pool) Get() (d *sim.Device, warm bool, err error) {
	if n := len(p.shells); n > 0 {
		d = p.shells[n-1]
		p.shells = p.shells[:n-1]
		return d, true, nil
	}
	d, err = sim.NewDevice(p.cfg)
	return d, false, err
}
