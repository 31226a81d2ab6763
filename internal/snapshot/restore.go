package snapshot

import (
	"fmt"

	"ctxback/internal/isa"
	"ctxback/internal/sim"
)

// Outcome records which restore path ran and what it cost. The cycle
// split feeds the phase table: SetupCycles is the restore-cold share
// (zero when a warm shell absorbed it), TransferCycles the
// image-transfer share both paths pay.
type Outcome struct {
	// Warm: the device came from the warm pool (construction skipped).
	Warm bool
	// Speculative: the speculative decode was used; Validate must be
	// called after replay to confirm the deferred memory checksum.
	Speculative bool
	// SyncFallback: speculation was attempted and abandoned; SpecError
	// says why.
	SyncFallback bool
	SpecError    string

	SetupCycles    int64
	TransferCycles int64
}

// RestoreCycles is the total modeled restore cost.
func (o Outcome) RestoreCycles() int64 { return o.SetupCycles + o.TransferCycles }

// Restored is a successfully revived device.
type Restored struct {
	Device   *sim.Device
	Index    *sim.StateIndex
	Snapshot *Snapshot
	Outcome  Outcome
	// Validate performs whatever verification the chosen path deferred
	// (the memory-section checksum under speculation; a no-op after a
	// synchronous restore). Callers run it after replay; a non-nil
	// error means the replayed state is suspect and the caller must
	// re-restore synchronously or degrade — never keep the result.
	Validate func() error
}

// Restore revives a device from snapshot bytes, preferring the
// speculative path and falling back to a fully-verified synchronous
// decode. specData is the stream the speculative path reads (the chaos
// harness hands it the corrupted copy); syncData is the authoritative
// image. A nil specData skips speculation. pool may be nil: every
// restore is then cold, building its shell from the snapshot's own
// config. Restore never advances the restored device's clock — the
// caller charges Outcome cycles wherever its cost model wants them.
//
// On error the snapshot could not be revived at all (both paths
// failed); the caller's remaining move is the BASELINE degradation:
// rerun the job from scratch.
func Restore(pool *Pool, specData, syncData []byte, wantEpoch uint64, rt sim.Runtime, progs ...*isa.Program) (*Restored, error) {
	var specErr error
	if specData != nil {
		res, err := attempt(pool, specData, wantEpoch, rt, progs, true)
		if err == nil {
			return res, nil
		}
		specErr = err
	}

	res, err := attempt(pool, syncData, wantEpoch, rt, progs, false)
	if err != nil {
		if specErr != nil {
			return nil, fmt.Errorf("snapshot: speculative restore failed (%v); synchronous restore failed: %w", specErr, err)
		}
		return nil, fmt.Errorf("snapshot: synchronous restore failed: %w", err)
	}
	if specErr != nil {
		res.Outcome.SyncFallback = true
		res.Outcome.SpecError = specErr.Error()
	}
	return res, nil
}

func attempt(pool *Pool, data []byte, wantEpoch uint64, rt sim.Runtime, progs []*isa.Program, speculative bool) (*Restored, error) {
	snap, validate, control, err := decode(data, speculative)
	if err != nil {
		return nil, err
	}
	if err := snap.VerifyEpoch(wantEpoch); err != nil {
		return nil, err
	}

	var (
		shell *sim.Device
		warm  bool
	)
	if pool != nil {
		shell, warm, err = pool.Get()
		if err != nil {
			return nil, err
		}
	} else {
		shell, err = sim.NewDevice(snap.State.Cfg)
		if err != nil {
			return nil, err
		}
	}
	idx, err := shell.ImportState(snap.State, rt, progs)
	if err != nil {
		// The shell may be partially mutated; it is dropped, not pooled.
		return nil, err
	}
	out := Outcome{
		Warm:           warm,
		Speculative:    speculative,
		TransferCycles: TransferCycles(snap.State.Cfg, wholeDeviceBytes(control, snap.State.Mem.Words())),
	}
	if !warm {
		out.SetupCycles = ColdSetupCycles(snap.State.Cfg)
	}
	return &Restored{
		Device:   shell,
		Index:    idx,
		Snapshot: snap,
		Outcome:  out,
		Validate: validate,
	}, nil
}

// Programs decodes the snapshot's embedded program images back into
// live programs, for callers that do not hold the original *Program
// values (a failover target on another host would not). The returned
// programs byte-match the snapshot's fingerprints by construction, so
// ImportState accepts them — but note they are NEW pointer identities:
// technique state keyed by program pointer (sched's muxRuntime) must be
// re-registered against them.
func (s *Snapshot) Programs() ([]*isa.Program, error) {
	progs := make([]*isa.Program, len(s.State.Progs))
	for i, enc := range s.State.Progs {
		p, err := isa.DecodeProgram(enc)
		if err != nil {
			return nil, fmt.Errorf("snapshot: program %d: %w", i, err)
		}
		progs[i] = p
	}
	return progs, nil
}
