package harness

import (
	"errors"
	"fmt"

	"ctxback/internal/chaos"
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
// episode degrade through the BASELINE fallback ladder (internal/chaos).
// Silent-wrong remains the outcome that must never occur.

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

// replayRestored finishes the restored episode: resume the single
// parked episode under the oracle, run the device dry, then settle the
// deferred validation. The first return is in-band detection (nil if
// the replay is trustworthy), the second an infrastructure failure.
// Replaying against corrupted memory could in principle wander past the
// cycle budget, which counts as detection too, not as a failure.
func replayRestored(job chaos.Job, res *snapshot.Restored) (error, error) {
	d := res.Device
	d.SetResumeChecker(job.Oracle)
	if len(res.Index.Episodes) != 1 {
		return nil, fmt.Errorf("snapshot chaos: restored %d episodes, want 1", len(res.Index.Episodes))
	}
	ep := res.Index.Episodes[0]
	for _, phase := range []func() error{
		func() error { return d.Resume(ep) },
		func() error { return d.RunUntil(ep.Finished, job.MaxCycles) },
		func() error { return d.Run(job.MaxCycles) },
	} {
		if err := phase(); err != nil {
			var be *sim.BudgetError
			if sim.FaultDetected(err) || errors.As(err, &be) {
				return err, nil
			}
			return nil, err
		}
	}
	return res.Validate(), nil
}

// runSnapshotCell classifies one snapshot-corruption cell end to end.
func runSnapshotCell(job chaos.Job, cell *ChaosCell, fc faults.Config) error {
	run, note, err := snapshotEpisode(job, cell, fc)
	if err != nil {
		return err
	}
	cell.Result, err = job.Settle(run, fc)
	if cell.Detected == "" {
		cell.Detected = note
	}
	return err
}

// snapshotEpisode preempts the job, checkpoints the parked episode,
// corrupts the speculative copy per the injector's draw and finishes
// the job on a restored device. note names the fault an in-episode
// recovery absorbed.
func snapshotEpisode(job chaos.Job, cell *ChaosCell, fc faults.Config) (run chaos.Run, note string, err error) {
	wl := job.Workload
	tech, err := preempt.New(cell.Kind, wl.Prog)
	if err != nil {
		return run, "", fmt.Errorf("%s/%v: %w", wl.Abbrev, cell.Kind, err)
	}
	d, err := sim.NewDevice(job.Cfg)
	if err != nil {
		return run, "", err
	}
	d.AttachRuntime(tech)
	if _, err := wl.Launch(d); err != nil {
		return run, "", err
	}
	if err := d.RunToCycle(job.Signal, job.MaxCycles); err != nil {
		return run, "", err
	}
	ep, err := d.Preempt(0, tech)
	if errors.Is(err, sim.ErrDrained) {
		// Nothing to checkpoint mid-episode; the uninterrupted remainder
		// must still verify.
		run.Skipped = true
		if err := d.Run(job.MaxCycles); err != nil {
			return run, "", err
		}
		run.VerifyErr = wl.Verify(d)
		return run, "", nil
	}
	if err != nil {
		return run, "", err
	}
	if err := d.RunUntil(ep.Saved, job.MaxCycles); err != nil {
		return run, "", err
	}

	snap, enc := snapshot.Capture(d, chaosSnapEpoch)
	inj, err := faults.NewInjector(fc)
	if err != nil {
		return run, "", err
	}
	sf, raw := inj.SnapshotFault(0)
	cell.SnapFault = sf.String()
	spec := corruptSpec(sf, raw, snap, enc)

	// restore restores from specData (nil: the authoritative image
	// alone) and replays; det is an in-band detection.
	restore := func(specData []byte) (res *snapshot.Restored, det, infra error) {
		t2, err := preempt.New(cell.Kind, wl.Prog)
		if err != nil {
			return nil, nil, err
		}
		res, err = snapshot.Restore(nil, specData, enc, chaosSnapEpoch, t2, wl.Prog)
		if err != nil {
			return nil, err, nil // even the authoritative image failed
		}
		det, infra = replayRestored(job, res)
		return res, det, infra
	}
	res, det, err := restore(spec)
	if err != nil {
		return run, "", err
	}
	if res != nil && res.Outcome.SyncFallback {
		run.Absorbed, note = true, res.Outcome.SpecError
	}
	if res != nil && det != nil {
		// The corruption slipped past the speculative decode and was
		// caught after replay: discard the suspect device and restore
		// synchronously from the authoritative image.
		run.Absorbed, note = true, det.Error()
		if res, det, err = restore(nil); err != nil {
			return run, "", err
		}
	}
	run.Detected = det
	if det == nil {
		run.VerifyErr = wl.Verify(res.Device)
	}
	return run, note, nil
}
