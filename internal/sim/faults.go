package sim

import (
	"errors"
	"fmt"
	"sort"

	"ctxback/internal/artifact"
	"ctxback/internal/faults"
)

// ErrSignalLost marks a preemption signal dropped by fault injection
// before any SM observed it. Callers recover by re-raising the signal.
var ErrSignalLost = errors.New("sim: preemption signal lost in delivery")

// TransferFaultError is the structured escalation of a context
// save/restore fault: either permanent, or transient with the bounded
// retries exhausted. The device must be discarded after receiving one;
// callers degrade by re-running the episode through a safe technique.
type TransferFaultError struct {
	WarpID    int
	SM        int
	Save      bool // true: preemption-save store, false: resume-restore load
	Permanent bool
	Attempts  int // issue attempts, including the first
}

func (e *TransferFaultError) Error() string {
	dir, cls := "restore", "transient"
	if e.Save {
		dir = "save"
	}
	if e.Permanent {
		cls = "permanent"
	}
	return fmt.Sprintf("sim: %s context-%s fault on warp %d (SM %d) after %d attempt(s)",
		cls, dir, e.WarpID, e.SM, e.Attempts)
}

// IntegrityError reports detected context corruption: a checksum
// mismatch at resume, or a resume-integrity oracle divergence. The
// device must be discarded; callers degrade to a safe technique.
type IntegrityError struct {
	WarpID int
	Stage  string // "checksum" or "oracle"
	Detail string
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("sim: resume integrity violation on warp %d (%s): %s", e.WarpID, e.Stage, e.Detail)
}

// FaultDetected reports whether err is an in-band fault detection, as
// opposed to an infrastructure failure: a context-transfer escalation
// (TransferFaultError), a checksum or resume-oracle violation
// (IntegrityError), a preemption signal still lost when the re-raise
// bound ran out (ErrSignalLost), or an execution fault (bad address,
// misalignment, invalid instruction). Under fault injection such a trap
// doubles as a detector: corrupted state that steers a warp into an
// illegal access is caught by the device before wrong output can
// commit, exactly like a GPU memory-protection fault. The device must
// be discarded after any of them; callers degrade through the BASELINE
// fallback ladder (internal/chaos).
func FaultDetected(err error) bool {
	var xfer *TransferFaultError
	var integ *IntegrityError
	var trap *faultError
	return errors.As(err, &xfer) || errors.As(err, &integ) ||
		errors.Is(err, ErrSignalLost) || errors.As(err, &trap)
}

// InjectFaults attaches a fault injector built from cfg to the device.
// Must be called before any episode; a nil-rate config still installs
// the injector (enabling checksums and snapshots). With no injector
// attached the fault paths cost nothing.
func (d *Device) InjectFaults(cfg faults.Config) error {
	inj, err := faults.NewInjector(cfg)
	if err != nil {
		return err
	}
	d.faults = inj
	return nil
}

// FaultStats returns the injected-fault counters (zero value when no
// injector is attached).
func (d *Device) FaultStats() faults.Stats {
	if d.faults == nil {
		return faults.Stats{}
	}
	return d.faults.Stats()
}

// SetResumeChecker installs a resume-integrity oracle: fn runs the
// moment a resumed warp regains its logical progress (ResumeComplete).
// A non-nil error aborts the simulation with that error; the harness
// installs checkers that diff the warp's architectural state against
// the snapshot captured when the preemption signal was observed.
// Installing a checker also enables signal-time snapshots.
func (d *Device) SetResumeChecker(fn func(w *Warp) error) { d.resumeChecker = fn }

// ArchSnapshot is a warp's architectural state captured when it
// observed a preemption signal — the reference the resume-integrity
// oracle diffs against. For techniques that resume exactly at the
// signal point this equals the uninterrupted golden run's state there.
type ArchSnapshot struct {
	PC       int
	DynCount int64
	VRegs    [][]uint32
	SRegs    []uint64
	Exec     uint64
	VCC      uint64
	SCC      bool
	LDSShare []uint32
}

// Snapshot returns the warp's signal-time architectural snapshot (nil
// unless faults or a resume checker were enabled before preemption).
func (w *Warp) Snapshot() *ArchSnapshot { return w.snapshot }

// snapshotArch deep-copies the warp's architectural state.
func (w *Warp) snapshotArch() *ArchSnapshot {
	s := &ArchSnapshot{
		PC:       w.PC,
		DynCount: w.DynCount,
		Exec:     w.Exec,
		VCC:      w.VCC,
		SCC:      w.SCC,
		SRegs:    append([]uint64(nil), w.SRegs...),
		VRegs:    make([][]uint32, len(w.VRegs)),
	}
	backing := make([]uint32, len(w.VRegs)*len(w.VRegs[0]))
	for i, vr := range w.VRegs {
		dst := backing[i*len(vr) : (i+1)*len(vr)]
		copy(dst, vr)
		s.VRegs[i] = dst
	}
	if w.LDSShareHi > w.LDSShareLo {
		s.LDSShare = append([]uint32(nil), w.LDS.Data[w.LDSShareLo>>2:w.LDSShareHi>>2]...)
	}
	return s
}

// Checksum folds every slot of the context buffer — registers, LDS
// share, and progress words — in deterministic (sorted-key) order, one
// 8-byte little-endian word at a time, into the repository's FNV-1a
// checksum. Computed at save time and verified at resume to detect
// corruption of the swapped-out context.
func (c *SavedContext) Checksum() uint64 {
	h := artifact.NewChecksum()
	for _, k := range sortedVKeys(c.VSlots) {
		h = h.Word(uint64(uint32(k)) | 1<<40)
		for _, v := range c.VSlots[k] {
			h = h.Word(uint64(v))
		}
	}
	for _, k := range sortedUKeys(c.SSlots) {
		h = h.Word(uint64(uint32(k)) | 2<<40).Word(c.SSlots[k])
	}
	for _, k := range sortedUKeys(c.Specs) {
		h = h.Word(uint64(uint32(k)) | 3<<40).Word(c.Specs[k])
	}
	h = h.Word(uint64(len(c.LDS)) | 4<<40)
	for _, v := range c.LDS {
		h = h.Word(uint64(v))
	}
	return uint64(h.Word(uint64(c.PC)).Word(uint64(c.DynCount)).Word(uint64(c.Barriers)))
}

func sortedVKeys(m map[int32][]uint32) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortKeys32(keys)
	return keys
}

func sortedUKeys(m map[int32]uint64) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortKeys32(keys)
	return keys
}

// corruptContext flips mask's bits in the first register or LDS slot of
// the buffer (deterministic target: lowest-keyed vector slot, else
// scalar, else special, else first LDS word). The PC/progress words are
// never touched: corruption models data bit flips, and a warp silently
// resuming at a wrong PC would evade the architectural oracle.
func corruptContext(ctx *SavedContext, mask uint32) {
	if len(ctx.VSlots) > 0 {
		k := sortedVKeys(ctx.VSlots)[0]
		ctx.VSlots[k][0] ^= mask
		return
	}
	if len(ctx.SSlots) > 0 {
		k := sortedUKeys(ctx.SSlots)[0]
		ctx.SSlots[k] ^= uint64(mask)
		return
	}
	if len(ctx.Specs) > 0 {
		k := sortedUKeys(ctx.Specs)[0]
		ctx.Specs[k] ^= uint64(mask)
		return
	}
	if len(ctx.LDS) > 0 {
		ctx.LDS[0] ^= mask
	}
}

// EpisodeFaults surfaces what an episode survived, as structured
// counters (paper-level robustness reporting; zero when no injector is
// attached).
type EpisodeFaults struct {
	// TransientRetries counts context-transfer retries that eventually
	// succeeded within the bounded-retry policy.
	TransientRetries int
	// CorruptedContexts counts victims whose swapped-out context buffer
	// took an injected bit flip.
	CorruptedContexts int
	// ChecksumMismatches counts corruptions the save-time checksum
	// caught at resume (the episode then aborts with IntegrityError).
	ChecksumMismatches int
	// AbsorbedDupSignals counts duplicate preemption-signal deliveries
	// rejected by the active-episode guard.
	AbsorbedDupSignals int
}

// checkResume runs the installed resume-integrity oracle for w, if any.
func (d *Device) checkResume(w *Warp) error {
	if d.resumeChecker == nil || w.snapshot == nil {
		return nil
	}
	return d.resumeChecker(w)
}

// sortKeys32 sorts int32 keys ascending (helper for deterministic
// iteration over context slots).
func sortKeys32(keys []int32) {
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
}
