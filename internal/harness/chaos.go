package harness

import (
	"ctxback/internal/cfg"
	"ctxback/internal/chaos"
	"ctxback/internal/faults"
	"ctxback/internal/liveness"
	"ctxback/internal/preempt"
)

// Chaos is the robustness experiment: every technique's preemption
// episode is re-run under seed-driven fault injection (context-transfer
// failures, context corruption, lost/duplicated signals, pipeline
// stalls), and every episode must end in one of the benign outcomes —
// absorbed, detected-and-degraded, or skipped. An injected corruption
// that reaches the final output without any in-band detection is a
// silent-wrong episode, and the experiment exists to show there are
// zero of them.
//
// Detection is layered:
//
//   - mode "checksum": the per-warp save-time context checksum is
//     verified before any corrupted buffer is consumed at resume.
//   - mode "oracle": checksums are disabled and corruption must instead
//     be caught by the resume-integrity oracle (chaos.Oracle), which
//     diffs what the resumed warp's program can still observe — live-in
//     registers on their observable lanes, EXEC when live, the LDS
//     share — against the architectural snapshot captured at the
//     preemption signal. Only techniques that resume exactly at the
//     signal point are swept in this mode (BASELINE, LIVE, CTXBack) —
//     re-executing or deferring techniques resume elsewhere, where the
//     snapshot cannot be diffed.
//   - mode "snapshot": the parked episode is whole-device checkpointed
//     (internal/snapshot) and the speculative restore copy is corrupted
//     — truncated, bit-flipped, or re-stamped with a stale epoch. The
//     section checksums, the epoch check, the deferred memory checksum
//     and execution traps must between them catch every class; recovery
//     re-restores from the authoritative image in-episode. The mode runs
//     no resume-integrity oracle (see chaos_snapshot.go).
//
// Every mode runs internal/chaos's episode, oracle, fallback ladder and
// outcome fold: a detected fault abandons the device and re-runs the
// whole episode through BASELINE, first with a salted fault seed, then
// fault-free.

// ChaosOptions configures the chaos sweep. The signal fraction, the
// re-raise bound and the fallback salt are internal/chaos's constants.
type ChaosOptions struct {
	// Seed is the root of every per-cell fault schedule; the full sweep
	// is reproducible from it.
	Seed uint64
	// Rates are the injected fault rates swept (applied to every fault
	// class via faults.Preset).
	Rates []float64
	// Kinds are the techniques swept in checksum mode.
	Kinds []preempt.Kind
	// OracleKinds are the techniques swept with checksums disabled,
	// relying on the resume-integrity oracle alone.
	OracleKinds []preempt.Kind
	// SnapshotKinds are the techniques swept in snapshot mode: the
	// parked episode is whole-device checkpointed, the speculative copy
	// corrupted (truncated, bit-flipped, stale epoch), and the job must
	// finish exactly on a restored device. Only relocatable techniques
	// (preempt.Relocatable) survive a snapshot trip.
	SnapshotKinds []preempt.Kind
}

// DefaultChaosOptions is the sweep used for EXPERIMENTS.md.
func DefaultChaosOptions() ChaosOptions {
	return ChaosOptions{
		Seed:          1,
		Rates:         []float64{0.02, 0.2},
		Kinds:         preempt.Kinds(),
		OracleKinds:   []preempt.Kind{preempt.Baseline, preempt.Live, preempt.CTXBack},
		SnapshotKinds: preempt.RelocatableKinds(),
	}
}

// ChaosCell is one (mode, rate, kernel, technique) episode of the sweep.
type ChaosCell struct {
	Mode   string // "checksum", "oracle" or "snapshot"
	Rate   float64
	Kernel string
	Kind   preempt.Kind
	// SnapFault is the injected snapshot-corruption class drawn in mode
	// "snapshot" ("" elsewhere).
	SnapFault string
	chaos.Result
}

// ChaosReport aggregates the sweep.
type ChaosReport struct {
	Opts    ChaosOptions
	Kernels []string
	Cells   []ChaosCell
	Counts  [chaos.SilentWrong + 1]int // by outcome, skipped cells aside
	Skipped int
}

// SilentWrong returns the number of silent-wrong episodes (the headline
// robustness claim is that this is zero at any seed).
func (r *ChaosReport) SilentWrong() int { return r.Counts[chaos.SilentWrong] }

// Unrecoverable returns the number of episodes no fallback completed.
func (r *ChaosReport) Unrecoverable() int { return r.Counts[chaos.Unrecoverable] }

// chaosCellSeed derives the deterministic fault seed of one sweep cell.
func chaosCellSeed(root uint64, mode, ri, ki, kj int) uint64 {
	return faults.DeriveSeed(root, uint64(mode), uint64(ri), uint64(ki), uint64(kj))
}

// Chaos sweeps fault rates x techniques x kernels, in all three
// detection modes, across the worker pool. Cell outcomes are
// independent deterministic simulations, so the report is identical at
// every Parallelism setting.
func (r *Runner) Chaos(co ChaosOptions) (*ChaosReport, error) {
	if err := r.prepareAll(); err != nil {
		return nil, err
	}
	rep := &ChaosReport{Opts: co}
	jobs := make([]chaos.Job, len(r.prep))
	for ki := range r.prep {
		p := r.prep[ki].p
		rep.Kernels = append(rep.Kernels, p.wl.Abbrev)
		g, err := cfg.Build(p.wl.Prog)
		if err != nil {
			return nil, err
		}
		jobs[ki] = chaos.Job{Cfg: r.o.Cfg, Workload: p.wl,
			Signal:    int64(chaos.SignalFrac * float64(p.goldenCycles)),
			MaxCycles: r.o.MaxCycles,
			Oracle:    chaos.Oracle(liveness.Analyze(g), p.wl.WarpsPerBlock)}
	}

	// Enumerate cells: mode 0 = checksum detection over Kinds, mode 1 =
	// oracle-only detection (checksums disabled) over OracleKinds, mode
	// 2 = snapshot corruption over SnapshotKinds.
	type cellCfg struct {
		fc faults.Config
		ki int
	}
	var cfgs []cellCfg
	add := func(mode string, rate float64, ki int, kind preempt.Kind, fc faults.Config) {
		rep.Cells = append(rep.Cells, ChaosCell{Mode: mode, Rate: rate, Kernel: rep.Kernels[ki], Kind: kind})
		cfgs = append(cfgs, cellCfg{fc: fc, ki: ki})
	}
	for ri, rate := range co.Rates {
		for ki := range r.prep {
			for kj, kind := range co.Kinds {
				add("checksum", rate, ki, kind, faults.Preset(chaosCellSeed(co.Seed, 0, ri, ki, kj), rate))
			}
			for kj, kind := range co.OracleKinds {
				add("oracle", rate, ki, kind, faults.Config{
					Seed:            chaosCellSeed(co.Seed, 1, ri, ki, kj),
					CorruptRate:     rate,
					DisableChecksum: true,
				})
			}
			for kj, kind := range co.SnapshotKinds {
				add("snapshot", rate, ki, kind, faults.Config{
					Seed:             chaosCellSeed(co.Seed, 2, ri, ki, kj),
					SnapTruncateRate: rate,
					SnapFlipRate:     rate,
					SnapStaleRate:    rate,
				})
			}
		}
	}

	if err := r.runJobs(len(rep.Cells), func(i int) error {
		cell, job, fc := &rep.Cells[i], jobs[cfgs[i].ki], cfgs[i].fc
		if cell.Mode == "snapshot" {
			return runSnapshotCell(job, cell, fc)
		}
		run, err := job.Episode(cell.Kind, &fc)
		if err != nil {
			return err
		}
		cell.Result, err = job.Settle(run, fc)
		return err
	}); err != nil {
		return nil, err
	}
	for i := range rep.Cells {
		if rep.Cells[i].Skipped && rep.Cells[i].Outcome != chaos.SilentWrong {
			rep.Skipped++
			continue
		}
		rep.Counts[rep.Cells[i].Outcome]++
	}
	return rep, nil
}
