package harness

import (
	"errors"
	"fmt"

	"ctxback/internal/faults"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
	"ctxback/internal/snapshot"
)

// Snapshot-corruption chaos (mode "snapshot"): a parked preemption
// episode is checkpointed with the whole device, the checkpoint's
// SPECULATIVE copy is corrupted per the injector's draw (truncation,
// bit flip, stale epoch), and the job must still finish with exact
// output on a restored device. Detection is layered like the live-fault
// modes:
//
//   - truncations, stale epochs and most bit flips fail the speculative
//     decode's section checksums up front; the restore falls back to
//     the authoritative synchronous image in-episode.
//   - a bit flip inside the bulk memory section (whose checksum the
//     speculative path defers) restores successfully and is only caught
//     AFTER replay — by the deferred checksum, the resume-integrity
//     oracle, or an execution trap — forcing a synchronous re-restore.
//
// Only when the authoritative image itself cannot be restored does the
// episode degrade through the BASELINE re-run ladder. Silent-wrong
// remains the outcome that must never occur.

// chaosSnapEpoch is the epoch every mode-"snapshot" checkpoint carries;
// a stale-epoch fault re-encodes the speculative copy at epoch-1.
const chaosSnapEpoch = 2

// corruptSpec derives the corrupted speculative copy for one drawn
// snapshot fault. The authoritative image is never touched — snapshot
// faults model loss on the speculative streaming path, so every class
// is recoverable by design; the sweep proves the recovery actually
// engages.
func corruptSpec(sf faults.SnapFault, raw uint64, snap *snapshot.Snapshot, enc []byte) []byte {
	switch sf {
	case faults.SnapTruncate:
		return enc[:raw%uint64(len(enc))]
	case faults.SnapFlip:
		bad := append([]byte(nil), enc...)
		bit := raw % uint64(8*len(bad))
		bad[bit/8] ^= 1 << (bit % 8)
		return bad
	case faults.SnapStale:
		stale := *snap
		stale.Epoch = chaosSnapEpoch - 1
		return snapshot.Encode(&stale)
	}
	return enc
}

// snapDetected extends detectedFault with the budget guard: replaying
// against corrupted memory could in principle wander past the cycle
// budget, which the sweep must classify as detection, not abort on.
func snapDetected(err error) bool {
	var be *sim.BudgetError
	return detectedFault(err) || errors.As(err, &be)
}

// replayRestored finishes the restored episode: resume the single
// parked episode under the oracle, run the device dry, then settle the
// deferred validation. The first return is in-band detection (nil if
// the replay is trustworthy), the second an infrastructure failure.
func (r *Runner) replayRestored(res *snapshot.Restored, checker func(*sim.Warp) error) (error, error) {
	d := res.Device
	d.SetResumeChecker(checker)
	if len(res.Index.Episodes) != 1 {
		return nil, fmt.Errorf("snapshot chaos: restored %d episodes, want 1", len(res.Index.Episodes))
	}
	ep := res.Index.Episodes[0]
	for _, phase := range []func() error{
		func() error { return d.Resume(ep) },
		func() error { return d.RunUntil(ep.Finished, r.o.MaxCycles) },
		func() error { return d.Run(r.o.MaxCycles) },
	} {
		if err := phase(); err != nil {
			if snapDetected(err) {
				return err, nil
			}
			return nil, err
		}
	}
	if err := res.Validate(); err != nil {
		return err, nil
	}
	return nil, nil
}

// runSnapshotCell classifies one snapshot-corruption cell end to end.
func (r *Runner) runSnapshotCell(co ChaosOptions, p *prepared, cell *ChaosCell,
	fcfg faults.Config, checker func(*sim.Warp) error) error {
	signal := int64(co.SignalFrac * float64(p.goldenCycles))
	tech, err := preempt.New(cell.Kind, p.wl.Prog)
	if err != nil {
		return fmt.Errorf("%s/%v: %w", p.wl.Abbrev, cell.Kind, err)
	}
	d, err := sim.NewDevice(r.o.Cfg)
	if err != nil {
		return err
	}
	d.AttachRuntime(tech)
	if _, err := p.wl.Launch(d); err != nil {
		return err
	}
	if err := d.RunToCycle(signal, r.o.MaxCycles); err != nil {
		return err
	}
	ep, err := d.Preempt(0, tech)
	if errors.Is(err, sim.ErrDrained) {
		// Nothing to checkpoint mid-episode; the uninterrupted remainder
		// must still verify.
		cell.Skipped = true
		if err := d.Run(r.o.MaxCycles); err != nil {
			return err
		}
		if p.wl.Verify(d) != nil {
			cell.Outcome = ChaosSilentWrong
		}
		return nil
	}
	if err != nil {
		return err
	}
	if err := d.RunUntil(ep.Saved, r.o.MaxCycles); err != nil {
		return err
	}

	snap, enc := snapshot.Capture(d, chaosSnapEpoch)
	inj, err := faults.NewInjector(fcfg)
	if err != nil {
		return err
	}
	sf, raw := inj.SnapshotFault(0)
	cell.SnapFault = sf.String()
	spec := corruptSpec(sf, raw, snap, enc)

	restoreOnce := func(specData []byte) (*snapshot.Restored, error) {
		t2, err := preempt.New(cell.Kind, p.wl.Prog)
		if err != nil {
			return nil, err
		}
		return snapshot.Restore(nil, specData, enc, chaosSnapEpoch, t2, p.wl.Prog)
	}

	var (
		detected  error // unrecoverable in-episode: degrade to BASELINE
		recovered bool  // a snapshot fault was absorbed in-episode
		final     *snapshot.Restored
	)
	res, err := restoreOnce(spec)
	if err != nil {
		detected = err // even the authoritative image failed
	} else {
		if res.Outcome.SyncFallback {
			recovered = true
			cell.Detected = res.Outcome.SpecError
		}
		det, infra := r.replayRestored(res, checker)
		if infra != nil {
			return infra
		}
		if det == nil {
			final = res
		} else {
			// The corruption slipped past the speculative decode and was
			// caught after replay: discard the suspect device and restore
			// synchronously from the authoritative image.
			recovered = true
			cell.Detected = det.Error()
			res2, err2 := restoreOnce(nil)
			if err2 != nil {
				detected = err2
			} else if det2, infra2 := r.replayRestored(res2, checker); infra2 != nil {
				return infra2
			} else if det2 != nil {
				detected = det2
			} else {
				final = res2
			}
		}
	}

	if detected != nil {
		cell.Detected = detected.Error()
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
		return nil
	}
	switch {
	case p.wl.Verify(final.Device) != nil:
		cell.Outcome = ChaosSilentWrong
	case recovered:
		cell.Outcome = ChaosRecovered
	default:
		cell.Outcome = ChaosClean
	}
	return nil
}
