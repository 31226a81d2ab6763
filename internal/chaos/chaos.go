// Package chaos is the fault-recovery policy of DESIGN.md §5, kept in
// one place: the resume-integrity oracle, the preemption episode, the
// BASELINE fallback ladder and the fold of an episode into one of five
// outcomes.
//
// Job.Drive is the one episode driver: signal, drain and save, an
// optional park hook that may move the parked episode to another
// device, resume and replay. Every single-SM preemption episode outside
// the benchmark runs through it: the harness's measured episodes, its
// chaos experiment in all three modes (the snapshot mode's restore is
// a park hook), the generated-corpus sweep (its snapshot round trip is
// a park hook) and gpusim (so is its -checkpoint). Job.Episode adds
// completion, the deferred validation, Workload.Verify and the
// detection fold.
//
// A fault is detected in-band when sim.FaultDetected holds for the
// error it ends the episode with. Detection abandons the device and
// climbs the ladder: the whole episode re-runs through BASELINE (a full
// context save, no reliance on the compile-time machinery under
// suspicion), first under a salted fault seed (the faulty environment
// persists, a different schedule is drawn), then fault-free. Only when
// neither rung completes with verified output is the episode
// unrecoverable. Output that fails verification with no in-band
// detection is silent-wrong, the outcome that must never occur.
package chaos

import (
	"errors"
	"fmt"

	"ctxback/internal/faults"
	"ctxback/internal/isa"
	"ctxback/internal/kernels"
	"ctxback/internal/liveness"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
)

const (
	// SignalFrac places a chaos episode's preemption signal as a
	// fraction of the workload's golden run.
	SignalFrac = 0.5
	// MaxSignalAttempts bounds the deliveries of one preemption signal:
	// a signal still lost after that many is an in-band detection.
	MaxSignalAttempts = 8
	// FallbackSalt derives the salted rung's fault seed.
	FallbackSalt uint64 = 0xFA11BACC
)

// Outcome classifies one fault-injected episode.
type Outcome int

const (
	// Clean: no injected fault touched the episode; output exact.
	Clean Outcome = iota
	// Recovered: faults fired and were absorbed in-episode (transfer
	// retries, re-raised signals, absorbed duplicates, a re-restore
	// from the authoritative image).
	Recovered
	// Fallback: a fault was detected in-band and the episode completed
	// through the BASELINE fallback ladder with exact output.
	Fallback
	// Unrecoverable: detection fired but no rung of the ladder completed.
	Unrecoverable
	// SilentWrong: the final output diverged from the reference with no
	// in-band detection. Must never happen.
	SilentWrong
)

func (o Outcome) String() string {
	switch o {
	case Clean:
		return "clean"
	case Recovered:
		return "recovered"
	case Fallback:
		return "fallback"
	case Unrecoverable:
		return "UNRECOVERABLE"
	case SilentWrong:
		return "SILENT-WRONG"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Rung is a step of the BASELINE fallback ladder.
type Rung int

const (
	// NoRung: neither rung completed with verified output.
	NoRung Rung = iota
	// SaltedRung re-runs the episode through BASELINE under the
	// detected episode's fault config with its seed salted.
	SaltedRung
	// FaultFreeRung re-runs the episode through BASELINE with no
	// injector attached.
	FaultFreeRung
)

func (r Rung) String() string {
	return [...]string{"none", "salted fault seed", "fault-free"}[r]
}

// Counters is the recovery work one episode absorbed.
type Counters struct {
	Retries     int // transient transfer faults retried in place
	ReRaised    int // preemption signals lost in delivery
	DupAbsorbed int // duplicated signals absorbed
	Corrupted   int // saved contexts corrupted
}

// Run is one fault-injected episode as it ended, before the fold.
type Run struct {
	Counters
	// Detected is the in-band detection that ended the episode, nil if
	// none; VerifyErr compares the finished output with the reference.
	Detected  error
	VerifyErr error
	// Skipped: SM 0 drained before the signal; the uninterrupted
	// remainder was verified instead.
	Skipped bool
	// Absorbed: a fault fired and the episode recovered in place.
	Absorbed bool
}

// Result is one episode folded into its outcome.
type Result struct {
	Outcome Outcome
	Skipped bool
	// Detected is the text of the in-band detection that triggered the
	// ladder (or, in the harness's snapshot mode, an in-episode
	// recovery); "" if none.
	Detected string
	Counters
	// FallbackAttempts is the number of rungs the ladder tried.
	FallbackAttempts int
}

// Job is one workload preempted on SM 0 at a fixed signal cycle: the
// unit that an episode and every rung of its ladder re-run.
type Job struct {
	Cfg       sim.Config
	Workload  *kernels.Workload
	Signal    int64
	MaxCycles int64
	// Oracle, when non-nil, is installed on the job's devices (Device)
	// with sim.Device.SetResumeChecker. The ladder's rungs run without
	// it.
	Oracle func(*sim.Warp) error
	// From, when non-nil, is the uninstrumented golden run's state at
	// Signal: Drive imports it instead of launching the workload and
	// simulating the prefix. Only a technique that never instruments the
	// kernel may start from it.
	From *sim.DeviceState
	// Park, when non-nil, is handed the episode once its context is
	// saved, and may move it to another device: it returns the device
	// and episode to resume and the validation to defer until the kernel
	// finishes (nil: none). The ladder's rungs run without it.
	Park func(d *sim.Device, ep *sim.Episode) (*sim.Device, *sim.Episode, func() error, error)
}

// Trip is one episode as Drive left it.
type Trip struct {
	// Device is the device the episode resumed on: Drive's, or the one
	// the park hook moved it to.
	Device *sim.Device
	// Ep is the episode, nil if no signal landed: the launch had
	// finished by the signal, or Drive failed before raising it.
	Ep *sim.Episode
	// Lost counts the signal deliveries lost in Raise.
	Lost int
	// Validate is the park hook's deferred validation (nil: none).
	Validate func() error
}

// Raise delivers a preemption signal to SM 0 under tech, re-raising a
// signal lost in delivery up to MaxSignalAttempts deliveries in all. It
// returns the episode and the number of deliveries lost; when all of
// them are, the error wraps sim.ErrSignalLost.
func Raise(d *sim.Device, tech preempt.Technique) (*sim.Episode, int, error) {
	lost := 0
	for {
		ep, err := d.Preempt(0, tech)
		if !errors.Is(err, sim.ErrSignalLost) {
			return ep, lost, err
		}
		if lost++; lost == MaxSignalAttempts {
			return nil, lost, err
		}
	}
}

// Device returns a fresh device for one of the job's episodes, with
// faults injected per fc (nil: no injector) and the oracle installed.
func (j Job) Device(fc *faults.Config) (*sim.Device, error) {
	d, err := sim.NewDevice(j.Cfg)
	if err != nil {
		return nil, err
	}
	if fc != nil {
		if err := d.InjectFaults(*fc); err != nil {
			return nil, err
		}
	}
	if j.Oracle != nil {
		d.SetResumeChecker(j.Oracle)
	}
	return d, nil
}

// Drive is the one episode driver. On d, a fresh device (see Device),
// it attaches tech and launches the workload and simulates to the
// signal, or imports From; raises the signal (Raise); runs until the
// context is saved; hands the parked episode to Park; resumes it and
// replays until every victim has regained its progress. The caller
// finishes the run. An error is the failed step's own error wrapped
// with the step's name (launch, signal, fork, preempt, save, park,
// resume or replay); one wrapping sim.ErrDrained means SM 0 had no
// warps left to preempt.
func (j Job) Drive(d *sim.Device, tech preempt.Technique) (Trip, error) {
	t := Trip{Device: d}
	var launch *sim.Launch
	if j.From == nil {
		d.AttachRuntime(tech)
		var err error
		if launch, err = j.Workload.Launch(d); err != nil {
			return t, fmt.Errorf("launch: %w", err)
		}
		if err := d.RunToCycle(j.Signal, j.MaxCycles); err != nil {
			return t, fmt.Errorf("signal: %w", err)
		}
	} else {
		idx, err := d.ImportState(j.From, tech, []*isa.Program{j.Workload.Prog})
		if err != nil {
			return t, fmt.Errorf("fork: %w", err)
		}
		launch = idx.Launches[0]
	}
	if launch.Done() {
		return t, nil
	}
	ep, lost, err := Raise(d, tech)
	if t.Lost = lost; err != nil {
		return t, fmt.Errorf("preempt: %w", err)
	}
	t.Ep = ep
	if err := d.RunUntil(ep.Saved, j.MaxCycles); err != nil {
		return t, fmt.Errorf("save: %w", err)
	}
	if j.Park != nil {
		pd, pep, validate, err := j.Park(d, ep)
		if err != nil {
			return t, fmt.Errorf("park: %w", err)
		}
		t.Device, t.Ep, t.Validate = pd, pep, validate
	}
	if err := t.Device.Resume(t.Ep); err != nil {
		return t, fmt.Errorf("resume: %w", err)
	}
	if err := t.Device.RunUntil(t.Ep.Finished, j.MaxCycles); err != nil {
		return t, fmt.Errorf("replay: %w", err)
	}
	return t, nil
}

// Episode runs one episode of kind on a fresh device from Device(fc)
// (EpisodeOn).
func (j Job) Episode(kind preempt.Kind, fc *faults.Config) (Run, error) {
	tech, err := preempt.New(kind, j.Workload.Prog)
	if err != nil {
		return Run{}, fmt.Errorf("%s/%v: %w", j.Workload.Abbrev, kind, err)
	}
	d, err := j.Device(fc)
	if err != nil {
		return Run{}, err
	}
	return j.EpisodeOn(d, tech)
}

// EpisodeOn drives one episode under tech on d (Drive), finishes the
// run, settles the park hook's deferred validation and verifies the
// output. The error is an infrastructure failure only; an in-band
// detection lands in Run.Detected. A failed validation is a detection
// too, and so is a budget overrun once the park hook has moved the
// episode to another device: it may have resumed from suspect state.
func (j Job) EpisodeOn(d *sim.Device, tech preempt.Technique) (Run, error) {
	t, err := j.Drive(d, tech)
	run := Run{Counters: Counters{ReRaised: t.Lost}}
	switch {
	case t.Ep == nil && (err == nil || errors.Is(err, sim.ErrDrained)):
		// SM 0 drained before the signal: the uninterrupted remainder
		// is verified instead.
		run.Skipped = true
		if err := d.Run(j.MaxCycles); err != nil {
			return run, err
		}
		run.VerifyErr = j.Workload.Verify(d)
		return run, nil
	case t.Ep == nil && !errors.Is(err, sim.ErrSignalLost):
		return run, err // nothing detectable is injected before the signal
	}
	cause, suspect := errors.Unwrap(err), false // the failed step's own error
	if err == nil {
		if cause = t.Device.Run(j.MaxCycles); cause == nil && t.Validate != nil {
			cause, suspect = t.Validate(), true
		}
	}
	if ep := t.Ep; ep != nil {
		run.Retries = ep.Faults.TransientRetries
		run.DupAbsorbed = ep.Faults.AbsorbedDupSignals
		run.Corrupted = ep.Faults.CorruptedContexts
	}
	run.Absorbed = run.Retries+run.ReRaised+run.DupAbsorbed > 0
	var be *sim.BudgetError
	switch {
	case cause == nil:
		run.VerifyErr = j.Workload.Verify(t.Device)
	case sim.FaultDetected(cause) || suspect || t.Device != d && errors.As(cause, &be):
		run.Detected = cause
	case err != nil:
		return run, err
	default:
		return run, cause
	}
	return run, nil
}

// Ladder re-runs the job through BASELINE after a fault detected under
// fc: first under fc with a salted seed, then fault-free. It returns
// the rung that completed with verified output, or NoRung.
func (j Job) Ladder(fc faults.Config) (Rung, error) {
	salted := fc
	salted.Seed = faults.DeriveSeed(fc.Seed, FallbackSalt)
	j.Oracle, j.Park = nil, nil
	for i, rc := range []*faults.Config{&salted, nil} {
		run, err := j.Episode(preempt.Baseline, rc)
		if err != nil {
			return NoRung, err
		}
		if run.Detected == nil && run.VerifyErr == nil {
			return Rung(i + 1), nil
		}
	}
	return NoRung, nil
}

// Settle folds run, an episode of the job under fc, into its outcome,
// climbing the ladder when it ended in a detection.
func (j Job) Settle(run Run, fc faults.Config) (Result, error) {
	res := Result{Skipped: run.Skipped, Counters: run.Counters}
	switch {
	case run.Detected != nil:
		res.Detected = run.Detected.Error()
		rung, err := j.Ladder(fc)
		if err != nil {
			return res, err
		}
		res.Outcome, res.FallbackAttempts = Fallback, int(rung)
		if rung == NoRung {
			res.Outcome, res.FallbackAttempts = Unrecoverable, int(FaultFreeRung)
		}
	case run.VerifyErr != nil:
		res.Outcome = SilentWrong
	case run.Absorbed && !run.Skipped:
		res.Outcome = Recovered
	}
	return res, nil
}

// Oracle returns the resume-integrity oracle for a program with
// liveness live, to install with sim.Device.SetResumeChecker. A warp
// that regains its logical progress exactly at its signal position
// (PC and dynamic count) must present what the program can still
// observe unchanged from the snapshot captured at the signal: its
// live-in registers, EXEC when it is live, and, for single-warp blocks,
// its LDS share. Warps resuming elsewhere (deferral targets) are
// skipped.
func Oracle(live *liveness.Info, warpsPerBlock int) func(*sim.Warp) error {
	return func(w *sim.Warp) error {
		snap, rec := w.Snapshot(), w.Record()
		if snap == nil || rec == nil {
			return nil
		}
		if w.PC != rec.PCAtSignal || w.DynCount != rec.DynAtSignal {
			return nil
		}
		pc := rec.PCAtSignal
		return Diff(w, snap, live.LiveIn[pc], live.EscIn[pc], warpsPerBlock)
	}
}

// Diff is the comparison Oracle makes: it checks a resumed warp against
// its signal-time snapshot over the live-in set live (esc: the live
// vectors whose masked-out lanes are observable). Registers are checked
// in Sorted order, so when several diverge the error names the first in
// (class, index) order and its text is the same on every run.
func Diff(w *sim.Warp, snap *sim.ArchSnapshot, live, esc isa.RegSet, warpsPerBlock int) error {
	fail := func(format string, args ...any) error {
		return &sim.IntegrityError{WarpID: w.ID, Stage: "oracle",
			Detail: fmt.Sprintf(format, args...)}
	}
	// EXEC can be dead at the signal point (the instruction there
	// overwrites it without reading it, e.g. the s_setexec of a
	// reconvergence); a resume legitimately leaves it unrestored.
	if live.Has(isa.Exec) && w.Exec != snap.Exec {
		return fail("EXEC %#x, snapshot %#x at pc %d", w.Exec, snap.Exec, w.PC)
	}
	for _, r := range live.Sorted() {
		switch r.Class {
		case isa.RegVector:
			// A live vector register whose masked-out lanes cannot be
			// observed below the signal point (no EXEC write or lane
			// read crossed while live) is only readable on the lanes
			// active at the signal; a resume may legitimately leave
			// the dead lanes unrestored.
			lanes := ^uint64(0)
			if !esc.Has(r) {
				lanes = snap.Exec
			}
			for l, v := range w.VRegs[r.Index] {
				if lanes&(1<<uint(l)) != 0 && v != snap.VRegs[r.Index][l] {
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
					return fail("VCC %#x, snapshot %#x at pc %d", w.VCC, snap.VCC, w.PC)
				}
			case isa.SpecSCC:
				if w.SCC != snap.SCC {
					return fail("SCC %v, snapshot %v at pc %d", w.SCC, snap.SCC, w.PC)
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
