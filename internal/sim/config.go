// Package sim implements a cycle-approximate SIMT GPU simulator: SMs with
// warp slots, a scoreboarded round-robin issue model, LDS, and a shared
// device-memory pipeline with latency, bandwidth and cross-SM contention.
// It executes isa.Programs functionally (so results can be verified
// against golden outputs) while accounting simulated cycles, and hosts the
// preemption engine that the techniques in internal/preempt plug into.
package sim

import (
	"fmt"

	"ctxback/internal/isa"
)

// Config describes the modeled GPU. DefaultConfig approximates the AMD
// Radeon VII parameters the paper reports (§II-A, §V).
type Config struct {
	NumSMs        int // streaming multiprocessors (CUs)
	MaxWarpsPerSM int // hardware warp-slot limit per SM

	VRegFileBytes int // per-SM vector register file (256 KB on Vega)
	SRegFileBytes int // per-SM scalar register file (12.5 KB)
	LDSBytesPerSM int // per-SM shared memory (64 KB)

	ClockGHz float64 // used only to convert cycles to microseconds

	// Device (global) memory timing.
	MemLatency       int     // cycles from issue to data return
	MemBytesPerCycle float64 // device-wide bandwidth shared by all SMs
	// CtxBytesPerCycle is the throughput of the context save/restore
	// path. The driver-style switch routines serialize register
	// traffic far below peak DRAM bandwidth (the paper's Table I shows
	// ~100-300 us for ~100-250 KB contexts); context traffic also crosses
	// the shared bus, so it slows further under contention.
	CtxBytesPerCycle float64
	// CtxRestoreFactor speeds up restores relative to saves (the paper
	// observes resume is shorter than preemption thanks to better memory
	// latency hiding on the load path).
	CtxRestoreFactor float64

	// LDS timing (per SM, private pipeline).
	LDSLatency       int
	LDSBytesPerCycle float64

	GlobalMemBytes int // size of simulated device memory
}

// DefaultConfig returns the Radeon-VII-like model used by the evaluation
// harness. MemBytesPerCycle is calibrated so that a liveness-blind
// full-SM context save lands in the paper's 75-330 µs band (Table I).
func DefaultConfig() Config {
	return Config{
		NumSMs:           4,
		MaxWarpsPerSM:    40,
		VRegFileBytes:    256 << 10,
		SRegFileBytes:    12800,
		LDSBytesPerSM:    64 << 10,
		ClockGHz:         1.75,
		MemLatency:       400,
		MemBytesPerCycle: 512,
		CtxBytesPerCycle: 0.8,
		CtxRestoreFactor: 1.35,
		LDSLatency:       24,
		LDSBytesPerCycle: 128,
		GlobalMemBytes:   256 << 20,
	}
}

// TestConfig returns a small, fast model for unit tests.
func TestConfig() Config {
	c := DefaultConfig()
	c.NumSMs = 2
	c.MaxWarpsPerSM = 8
	c.GlobalMemBytes = 1 << 20
	c.MemLatency = 40
	c.MemBytesPerCycle = 64
	c.CtxBytesPerCycle = 4
	c.CtxRestoreFactor = 1.35
	return c
}

// Occupancy describes how many blocks/warps of a kernel fit on one SM.
type Occupancy struct {
	WarpsPerSM  int
	BlocksPerSM int
	LimitedBy   string
}

// Occupancy derives the per-SM residency limits for prog with the given
// block shape; it depends on the SM model alone.
func (c *Config) Occupancy(prog *isa.Program, warpsPerBlock int) (Occupancy, error) {
	warp := blockNeeds(prog, 1)
	if warp.vregBytes == 0 {
		return Occupancy{}, fmt.Errorf("sim: kernel %q declares no vector registers", prog.Name)
	}
	limit := c.MaxWarpsPerSM
	by := "warp slots"
	if v := c.VRegFileBytes / warp.vregBytes; v < limit {
		limit, by = v, "vector registers"
	}
	if warp.sregBytes > 0 {
		if s := c.SRegFileBytes / warp.sregBytes; s < limit {
			limit, by = s, "scalar registers"
		}
	}
	blocks := limit / warpsPerBlock
	if warp.ldsBytes > 0 {
		if l := c.LDSBytesPerSM / warp.ldsBytes; l < blocks {
			blocks, by = l, "LDS"
		}
	}
	if blocks == 0 {
		return Occupancy{}, fmt.Errorf("sim: kernel %q (block of %d warps) does not fit on an SM (limited by %s)",
			prog.Name, warpsPerBlock, by)
	}
	return Occupancy{WarpsPerSM: blocks * warpsPerBlock, BlocksPerSM: blocks, LimitedBy: by}, nil
}

// Validate checks the configuration for usability.
func (c *Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return fmt.Errorf("sim: NumSMs must be positive")
	case c.MaxWarpsPerSM <= 0:
		return fmt.Errorf("sim: MaxWarpsPerSM must be positive")
	case c.VRegFileBytes <= 0 || c.SRegFileBytes <= 0:
		return fmt.Errorf("sim: register files must be positive")
	case c.ClockGHz <= 0:
		return fmt.Errorf("sim: ClockGHz must be positive")
	case c.MemLatency < 0 || c.MemBytesPerCycle <= 0 || c.CtxBytesPerCycle <= 0:
		return fmt.Errorf("sim: invalid memory timing")
	case c.GlobalMemBytes <= 0 || c.GlobalMemBytes%4 != 0:
		return fmt.Errorf("sim: GlobalMemBytes must be a positive multiple of 4")
	}
	return nil
}

// CyclesToMicros converts simulated cycles to microseconds.
func (c *Config) CyclesToMicros(cycles int64) float64 {
	return float64(cycles) / (c.ClockGHz * 1e3)
}
