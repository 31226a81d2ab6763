package harness

import (
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
//     AFTER replay — by the deferred memory checksum or an execution
//     trap — forcing a synchronous re-restore.
//
// The mode runs no resume-integrity oracle. Only a device with an
// oracle or an injector captures signal-time snapshots, so the parked
// device's image carries none for an oracle on the restored device to
// check; running the oracle on the parked device would put them in the
// image and change its bytes.
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

// runSnapshotCell classifies one snapshot-corruption cell end to end.
// It drives the job with a park hook that checkpoints the parked
// episode with the whole device, corrupts the speculative copy per the
// injector's draw and restores the episode from it. A detection after
// a successful restore re-drives the job with a hook that restores the
// authoritative image alone: episodes are deterministic, so the second
// drive parks in the same state.
func runSnapshotCell(job chaos.Job, cell *ChaosCell, fc faults.Config) error {
	inj, err := faults.NewInjector(fc)
	if err != nil {
		return err
	}
	sf, raw := inj.SnapshotFault(0)
	job.Oracle = nil
	var res *snapshot.Restored // the last successful restore
	drive := func(speculate bool) (chaos.Run, error) {
		var lost error // even the authoritative image failed to restore
		res = nil
		job.Park = func(d *sim.Device, ep *sim.Episode) (*sim.Device, *sim.Episode, func() error, error) {
			snap, enc := snapshot.Capture(d, chaosSnapEpoch)
			var spec []byte
			if speculate {
				cell.SnapFault = sf.String()
				spec = corruptSpec(sf, raw, snap, enc)
			}
			tech, err := preempt.New(cell.Kind, job.Workload.Prog)
			if err != nil {
				return nil, nil, nil, err
			}
			r, err := snapshot.Restore(nil, spec, enc, chaosSnapEpoch, tech, job.Workload.Prog)
			if lost = err; err != nil {
				return nil, nil, nil, err
			}
			if len(r.Index.Episodes) != 1 {
				return nil, nil, nil, fmt.Errorf("snapshot chaos: restored %d episodes, want 1", len(r.Index.Episodes))
			}
			res = r
			return r.Device, r.Index.Episodes[0], r.Validate, nil
		}
		run, err := job.Episode(cell.Kind, nil)
		if lost != nil {
			return chaos.Run{Detected: lost}, nil
		}
		return run, err
	}
	run, err := drive(true)
	if err != nil {
		return err
	}
	var note string // the fault an in-episode recovery absorbed
	if res != nil && res.Outcome.SyncFallback {
		run.Absorbed, note = true, res.Outcome.SpecError
	}
	if res != nil && run.Detected != nil {
		// The corruption slipped past the speculative decode and was
		// caught after replay: discard the suspect device and restore
		// from the authoritative image.
		note = run.Detected.Error()
		if run, err = drive(false); err != nil {
			return err
		}
		run.Absorbed = true
	}
	cell.Result, err = job.Settle(run, fc)
	if cell.Detected == "" {
		cell.Detected = note
	}
	return err
}
