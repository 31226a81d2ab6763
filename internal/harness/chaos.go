package harness

import (
	"errors"
	"fmt"

	"ctxback/internal/cfg"
	"ctxback/internal/faults"
	"ctxback/internal/isa"
	"ctxback/internal/liveness"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
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
//     be caught by the resume-integrity oracle, which diffs the resumed
//     warp's live-in registers, EXEC and LDS share against the
//     architectural snapshot captured at the preemption signal. Only
//     techniques that resume exactly at the signal point are swept in
//     this mode (BASELINE, LIVE, CTXBack) — re-executing or deferring
//     techniques resume elsewhere, where the snapshot cannot be diffed.
//   - mode "snapshot": the parked episode is whole-device checkpointed
//     (internal/snapshot) and the speculative restore copy is corrupted
//     — truncated, bit-flipped, or re-stamped with a stale epoch. The
//     section checksums, epoch check, deferred memory validation and
//     the resume-integrity oracle must between them catch every class;
//     recovery re-restores from the authoritative image in-episode.
//
// Degradation: a detected fault abandons the device and re-runs the
// whole episode through BASELINE — first with a salted fault seed (the
// fault environment persists; a different schedule is drawn), then
// fault-free. Only when both fallbacks fail is the episode
// unrecoverable.

// ChaosOutcome classifies one fault-injected episode.
type ChaosOutcome int

const (
	// ChaosClean: no injected fault touched the episode; output exact.
	ChaosClean ChaosOutcome = iota
	// ChaosRecovered: faults fired and were absorbed in-episode
	// (transfer retries, re-raised signals, absorbed duplicates).
	ChaosRecovered
	// ChaosFallback: a fault was detected in-band and the episode
	// completed through the BASELINE fallback with exact output.
	ChaosFallback
	// ChaosUnrecoverable: detection fired but every fallback failed.
	ChaosUnrecoverable
	// ChaosSilentWrong: the final output diverged from the reference
	// with no in-band detection. Must never happen.
	ChaosSilentWrong
	numChaosOutcomes
)

func (o ChaosOutcome) String() string {
	switch o {
	case ChaosClean:
		return "clean"
	case ChaosRecovered:
		return "recovered"
	case ChaosFallback:
		return "fallback"
	case ChaosUnrecoverable:
		return "UNRECOVERABLE"
	case ChaosSilentWrong:
		return "SILENT-WRONG"
	}
	return fmt.Sprintf("ChaosOutcome(%d)", int(o))
}

// code is the single-letter table cell for RenderChaos.
func (o ChaosOutcome) code() string {
	return [...]string{"C", "R", "F", "U", "S!"}[o]
}

// ChaosOptions configures the chaos sweep.
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
	// SignalFrac places the preemption signal as a fraction of the
	// golden run.
	SignalFrac float64
	// MaxSignalAttempts bounds re-raising a dropped preemption signal
	// before escalating to the fallback path.
	MaxSignalAttempts int
	// FallbackSalt derives the fallback attempt's fault seed.
	FallbackSalt uint64
}

// DefaultChaosOptions is the sweep used for EXPERIMENTS.md.
func DefaultChaosOptions() ChaosOptions {
	return ChaosOptions{
		Seed:              1,
		Rates:             []float64{0.02, 0.2},
		Kinds:             preempt.Kinds(),
		OracleKinds:       []preempt.Kind{preempt.Baseline, preempt.Live, preempt.CTXBack},
		SnapshotKinds:     preempt.RelocatableKinds(),
		SignalFrac:        0.5,
		MaxSignalAttempts: 8,
		FallbackSalt:      0xFA11BACC,
	}
}

// ChaosCell is one (mode, rate, kernel, technique) episode of the sweep.
type ChaosCell struct {
	Mode    string // "checksum", "oracle" or "snapshot"
	Rate    float64
	Kernel  string
	Kind    preempt.Kind
	Outcome ChaosOutcome
	// Skipped: the sampled SM drained before the signal; nothing to
	// preempt (the uninterrupted remainder still verified).
	Skipped bool
	// Detected is the in-band detection that triggered degradation (or,
	// in snapshot mode, the in-episode recovery).
	Detected string
	// SnapFault is the injected snapshot-corruption class drawn in mode
	// "snapshot" ("" elsewhere).
	SnapFault string
	// Absorbed recovery work inside the (first) episode.
	Retries     int
	ReRaised    int
	DupAbsorbed int
	Corrupted   int
	// FallbackAttempts used before the episode completed (0 = none).
	FallbackAttempts int
}

// ChaosReport aggregates the sweep.
type ChaosReport struct {
	Opts    ChaosOptions
	Kernels []string
	Cells   []ChaosCell
	Counts  [numChaosOutcomes]int
	Skipped int
}

// SilentWrong returns the number of silent-wrong episodes (the headline
// robustness claim is that this is zero at any seed).
func (r *ChaosReport) SilentWrong() int { return r.Counts[ChaosSilentWrong] }

// Unrecoverable returns the number of episodes no fallback completed.
func (r *ChaosReport) Unrecoverable() int { return r.Counts[ChaosUnrecoverable] }

// chaosRun is the raw outcome of one episode attempt.
type chaosRun struct {
	detected                                  error // in-band detection, nil if none
	verifyErr                                 error // final output vs the CPU reference
	skipped                                   bool
	retries, reRaised, dupAbsorbed, corrupted int
}

// detectedFault reports whether err is an in-band fault detection (as
// opposed to an infrastructure failure that should abort the sweep).
// Execution faults count: corrupted state that steers a warp into an
// illegal access traps before wrong output commits.
func detectedFault(err error) bool {
	var xfer *sim.TransferFaultError
	var integ *sim.IntegrityError
	return errors.As(err, &xfer) || errors.As(err, &integ) ||
		errors.Is(err, sim.ErrSignalLost) || sim.IsExecutionFault(err)
}

// chaosChecker builds the resume-integrity oracle for one workload: at
// the moment a warp regains its logical progress at the exact signal
// position, its live-in registers, EXEC and (for single-warp blocks)
// LDS share must match the snapshot captured when the signal was
// observed. Warps resuming elsewhere (deferral targets) are skipped.
func chaosChecker(live *liveness.Info, warpsPerBlock int) func(w *sim.Warp) error {
	return func(w *sim.Warp) error {
		snap, rec := w.Snapshot(), w.Record()
		if snap == nil || rec == nil {
			return nil
		}
		if w.PC != rec.PCAtSignal || w.DynCount != rec.DynAtSignal {
			return nil
		}
		return chaosDiff(w, snap, live.LiveIn[rec.PCAtSignal], warpsPerBlock)
	}
}

// chaosDiff compares a resumed warp against its signal-time snapshot
// over the live-in set. Registers are checked in Sorted order, so when
// several diverge the error names the first in (class, index) order
// and its text is the same on every run.
func chaosDiff(w *sim.Warp, snap *sim.ArchSnapshot, live isa.RegSet, warpsPerBlock int) error {
	fail := func(format string, args ...any) error {
		return &sim.IntegrityError{WarpID: w.ID, Stage: "oracle",
			Detail: fmt.Sprintf(format, args...)}
	}
	if w.Exec != snap.Exec {
		return fail("EXEC %#x, snapshot %#x at pc %d", w.Exec, snap.Exec, w.PC)
	}
	for _, r := range live.Sorted() {
		switch r.Class {
		case isa.RegVector:
			for l, v := range w.VRegs[r.Index] {
				if v != snap.VRegs[r.Index][l] {
					return fail("v%d[%d] = %#x, snapshot %#x at pc %d", r.Index, l, v, snap.VRegs[r.Index][l], w.PC)
				}
			}
		case isa.RegScalar:
			if w.SRegs[r.Index] != snap.SRegs[r.Index] {
				return fail("s%d = %#x, snapshot %#x at pc %d", r.Index, w.SRegs[r.Index], snap.SRegs[r.Index], w.PC)
			}
		case isa.RegSpecial:
			switch r.Index {
			case isa.SpecVCC:
				if w.VCC != snap.VCC {
					return fail("VCC diverged at pc %d", w.PC)
				}
			case isa.SpecSCC:
				if w.SCC != snap.SCC {
					return fail("SCC diverged at pc %d", w.PC)
				}
			}
		}
	}
	if warpsPerBlock == 1 && len(snap.LDSShare) > 0 {
		share := w.LDS.Data[w.LDSShareLo>>2 : w.LDSShareHi>>2]
		for i, v := range share {
			if v != snap.LDSShare[i] {
				return fail("LDS[%d] = %#x, snapshot %#x", i, v, snap.LDSShare[i])
			}
		}
	}
	return nil
}

// chaosEpisode runs one preempt/resume episode under fault injection
// and verifies the completed run. The returned error is infrastructure
// failure only; fault detections land in chaosRun.detected.
func (o *Options) chaosEpisode(p *prepared, kind preempt.Kind, signal int64,
	fcfg *faults.Config, checker func(*sim.Warp) error, maxSignalAttempts int) (chaosRun, error) {
	var run chaosRun
	tech, err := preempt.New(kind, p.wl.Prog)
	if err != nil {
		return run, fmt.Errorf("%s/%v: %w", p.wl.Abbrev, kind, err)
	}
	d, err := o.newDevice()
	if err != nil {
		return run, err
	}
	if fcfg != nil {
		if err := d.InjectFaults(*fcfg); err != nil {
			return run, err
		}
	}
	if checker != nil {
		d.SetResumeChecker(checker)
	}
	d.AttachRuntime(tech)
	if _, err := p.wl.Launch(d); err != nil {
		return run, err
	}
	if err := d.RunToCycle(signal, o.MaxCycles); err != nil {
		return run, err // pre-signal execution injects no detectable faults
	}

	finish := func() (chaosRun, error) {
		run.verifyErr = p.wl.Verify(d)
		return run, nil
	}
	var ep *sim.Episode
	for attempt := 0; ; attempt++ {
		ep, err = d.Preempt(0, tech)
		if err == nil {
			break
		}
		if errors.Is(err, sim.ErrSignalLost) {
			run.reRaised++
			if attempt+1 >= maxSignalAttempts {
				// Bounded redelivery exhausted: escalate to degradation.
				run.detected = err
				return run, nil
			}
			continue
		}
		if errors.Is(err, sim.ErrDrained) {
			// SM 0 drained before the signal landed: nothing to preempt;
			// the uninterrupted remainder must still verify.
			run.skipped = true
			if err := d.Run(o.MaxCycles); err != nil {
				return run, err
			}
			return finish()
		}
		// Anything else is a real preemption failure, not a drain.
		return run, err
	}
	step := func(runErr error) (done bool, fatal error) {
		if runErr == nil {
			return false, nil
		}
		if detectedFault(runErr) {
			run.detected = runErr
			return true, nil
		}
		return true, runErr
	}
	collect := func() {
		run.retries = ep.Faults.TransientRetries
		run.dupAbsorbed = ep.Faults.AbsorbedDupSignals
		run.corrupted = ep.Faults.CorruptedContexts
	}
	for _, phase := range []func() error{
		func() error { return d.RunUntil(ep.Saved, o.MaxCycles) },
		func() error { return d.Resume(ep) },
		func() error { return d.RunUntil(ep.Finished, o.MaxCycles) },
		func() error { return d.Run(o.MaxCycles) },
	} {
		if done, fatal := step(phase()); done {
			collect()
			return run, fatal
		}
	}
	collect()
	return finish()
}

// chaosCellSeed derives the deterministic fault seed of one sweep cell.
func chaosCellSeed(root uint64, mode, ri, ki, kj int) uint64 {
	return faults.DeriveSeed(root, uint64(mode), uint64(ri), uint64(ki), uint64(kj))
}

// runChaosCell classifies one cell end to end, including degradation.
func (r *Runner) runChaosCell(co ChaosOptions, p *prepared, cell *ChaosCell,
	fcfg faults.Config, checker func(*sim.Warp) error) error {
	signal := int64(co.SignalFrac * float64(p.goldenCycles))
	run, err := r.o.chaosEpisode(p, cell.Kind, signal, &fcfg, checker, co.MaxSignalAttempts)
	if err != nil {
		return err
	}
	cell.Retries, cell.ReRaised = run.retries, run.reRaised
	cell.DupAbsorbed, cell.Corrupted = run.dupAbsorbed, run.corrupted
	switch {
	case run.detected != nil:
		cell.Detected = run.detected.Error()
		// Degradation: the whole episode re-runs through BASELINE —
		// first under a salted fault schedule (the faulty environment
		// persists), then fault-free.
		salted := fcfg
		salted.Seed = faults.DeriveSeed(fcfg.Seed, co.FallbackSalt)
		for _, fb := range []*faults.Config{&salted, nil} {
			cell.FallbackAttempts++
			fbRun, err := r.o.chaosEpisode(p, preempt.Baseline, signal, fb, nil, co.MaxSignalAttempts)
			if err != nil {
				return err
			}
			if fbRun.detected == nil && fbRun.verifyErr == nil {
				cell.Outcome = ChaosFallback
				return nil
			}
		}
		cell.Outcome = ChaosUnrecoverable
	case run.skipped:
		cell.Skipped = true
		if run.verifyErr != nil {
			cell.Outcome = ChaosSilentWrong
		}
	case run.verifyErr != nil:
		cell.Outcome = ChaosSilentWrong
	case run.retries+run.reRaised+run.dupAbsorbed > 0:
		cell.Outcome = ChaosRecovered
	default:
		cell.Outcome = ChaosClean
	}
	return nil
}

// Chaos sweeps fault rates x techniques x kernels, in both detection
// modes, across the worker pool. Cell outcomes are independent
// deterministic simulations, so the report is identical at every
// Parallelism setting.
func (r *Runner) Chaos(co ChaosOptions) (*ChaosReport, error) {
	if co.SignalFrac <= 0 || co.SignalFrac >= 1 {
		co.SignalFrac = 0.5
	}
	if co.MaxSignalAttempts < 1 {
		co.MaxSignalAttempts = 8
	}
	if err := r.prepareAll(); err != nil {
		return nil, err
	}
	rep := &ChaosReport{Opts: co}
	for ki := range r.prep {
		rep.Kernels = append(rep.Kernels, r.prep[ki].p.wl.Abbrev)
	}

	// Enumerate cells: mode 0 = checksum detection over Kinds, mode 1 =
	// oracle-only detection (checksums disabled) over OracleKinds.
	type cellCfg struct {
		fcfg    faults.Config
		checker func(*sim.Warp) error
		ki      int
	}
	var cfgs []cellCfg
	oracles := make([]func(*sim.Warp) error, len(r.prep))
	for ki := range r.prep {
		g, err := cfg.Build(r.prep[ki].p.wl.Prog)
		if err != nil {
			return nil, err
		}
		oracles[ki] = chaosChecker(liveness.Analyze(g), r.o.Params.WarpsPerBlock)
	}
	for ri, rate := range co.Rates {
		for ki := range r.prep {
			for kj, kind := range co.Kinds {
				fc := faults.Preset(chaosCellSeed(co.Seed, 0, ri, ki, kj), rate)
				rep.Cells = append(rep.Cells, ChaosCell{Mode: "checksum", Rate: rate,
					Kernel: rep.Kernels[ki], Kind: kind})
				cfgs = append(cfgs, cellCfg{fcfg: fc, checker: oracles[ki], ki: ki})
			}
			for kj, kind := range co.OracleKinds {
				fc := faults.Config{
					Seed:            chaosCellSeed(co.Seed, 1, ri, ki, kj),
					CorruptRate:     rate,
					DisableChecksum: true,
				}
				rep.Cells = append(rep.Cells, ChaosCell{Mode: "oracle", Rate: rate,
					Kernel: rep.Kernels[ki], Kind: kind})
				cfgs = append(cfgs, cellCfg{fcfg: fc, checker: oracles[ki], ki: ki})
			}
			for kj, kind := range co.SnapshotKinds {
				fc := faults.Config{
					Seed:             chaosCellSeed(co.Seed, 2, ri, ki, kj),
					SnapTruncateRate: rate,
					SnapFlipRate:     rate,
					SnapStaleRate:    rate,
				}
				rep.Cells = append(rep.Cells, ChaosCell{Mode: "snapshot", Rate: rate,
					Kernel: rep.Kernels[ki], Kind: kind})
				cfgs = append(cfgs, cellCfg{fcfg: fc, checker: oracles[ki], ki: ki})
			}
		}
	}

	if err := r.runJobs(len(rep.Cells), func(i int) error {
		if rep.Cells[i].Mode == "snapshot" {
			return r.runSnapshotCell(co, r.prep[cfgs[i].ki].p, &rep.Cells[i], cfgs[i].fcfg, cfgs[i].checker)
		}
		return r.runChaosCell(co, r.prep[cfgs[i].ki].p, &rep.Cells[i], cfgs[i].fcfg, cfgs[i].checker)
	}); err != nil {
		return nil, err
	}
	for i := range rep.Cells {
		if rep.Cells[i].Skipped && rep.Cells[i].Outcome != ChaosSilentWrong {
			rep.Skipped++
			continue
		}
		rep.Counts[rep.Cells[i].Outcome]++
	}
	return rep, nil
}
