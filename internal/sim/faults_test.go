package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ctxback/internal/faults"
	"ctxback/internal/isa"
)

// episode runs one full preempt/resume round trip of the sum kernel on a
// device prepared by the caller, returning the first error surfaced.
func runEpisode(t *testing.T, d *Device, loops, warps int) (*Episode, error) {
	t.Helper()
	launchSum(t, d, loops, warps)
	if err := d.RunUntil(func() bool { return d.Now() > 200 }, 1_000_000); err != nil {
		return nil, err
	}
	ep, err := d.Preempt(0, naiveRuntime{})
	if err != nil {
		return nil, err
	}
	if err := d.RunUntil(ep.Saved, 10_000_000); err != nil {
		return ep, err
	}
	if err := d.Resume(ep); err != nil {
		return ep, err
	}
	if err := d.Run(50_000_000); err != nil {
		return ep, err
	}
	return ep, nil
}

func inject(t *testing.T, d *Device, cfg faults.Config) {
	t.Helper()
	if err := d.InjectFaults(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumDeterministicAndSensitive(t *testing.T) {
	ctx := NewSavedContext()
	ctx.VSlots[3] = []uint32{1, 2, 3, 4}
	ctx.VSlots[0] = []uint32{9}
	ctx.SSlots[1] = 0xdead
	ctx.Specs[0] = ^uint64(0)
	ctx.LDS = []uint32{5, 6}
	ctx.PC = 17
	ctx.DynCount = 99
	ctx.Barriers = 2

	base := ctx.Checksum()
	if base != ctx.Checksum() {
		t.Fatal("checksum not deterministic")
	}
	ctx.VSlots[3][2] ^= 1
	if ctx.Checksum() == base {
		t.Error("vector-slot bit flip not reflected in checksum")
	}
	ctx.VSlots[3][2] ^= 1
	if ctx.Checksum() != base {
		t.Fatal("checksum did not revert with the flip")
	}
	ctx.PC++
	if ctx.Checksum() == base {
		t.Error("PC change not reflected in checksum")
	}
	ctx.PC--
	ctx.LDS[0] ^= 1 << 31
	if ctx.Checksum() == base {
		t.Error("LDS bit flip not reflected in checksum")
	}
}

// referenceChecksum is SavedContext.Checksum's original byte-at-a-time
// FNV-1a fold, kept as the oracle for the shared artifact.Checksum word
// fold: PreemptRecord.SavedChecksum lands in snapshot images, so every
// value must stay identical.
func referenceChecksum(c *SavedContext) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime
			v >>= 8
		}
	}
	for _, k := range sortedVKeys(c.VSlots) {
		word(uint64(uint32(k)) | 1<<40)
		for _, v := range c.VSlots[k] {
			word(uint64(v))
		}
	}
	for _, k := range sortedUKeys(c.SSlots) {
		word(uint64(uint32(k)) | 2<<40)
		word(c.SSlots[k])
	}
	for _, k := range sortedUKeys(c.Specs) {
		word(uint64(uint32(k)) | 3<<40)
		word(c.Specs[k])
	}
	word(uint64(len(c.LDS)) | 4<<40)
	for _, v := range c.LDS {
		word(uint64(v))
	}
	word(uint64(c.PC))
	word(uint64(c.DynCount))
	word(uint64(c.Barriers))
	return h
}

// TestChecksumMatchesReference compares Checksum with the byte-fold
// oracle over random contexts: empty ones, zero and non-zero slots
// (zero words take the fold's one-multiply path), LDS shares, and
// PC/progress words of every magnitude.
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	val := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return uint64(rng.Intn(256))
		default:
			return rng.Uint64()
		}
	}
	for i := 0; i < 500; i++ {
		c := NewSavedContext()
		for n := rng.Intn(5); n > 0; n-- {
			lanes := make([]uint32, rng.Intn(3)*32)
			for l := range lanes {
				lanes[l] = uint32(val())
			}
			c.VSlots[int32(rng.Intn(64))-8] = lanes
		}
		for n := rng.Intn(5); n > 0; n-- {
			c.SSlots[int32(rng.Intn(32))] = val()
		}
		for n := rng.Intn(3); n > 0; n-- {
			c.Specs[int32(rng.Intn(3))] = val()
		}
		c.LDS = make([]uint32, rng.Intn(40))
		for l := range c.LDS {
			c.LDS[l] = uint32(val())
		}
		c.PC = int(val() >> 40)
		c.DynCount = int64(val())
		c.Barriers = int(val() >> 48)
		if got, want := c.Checksum(), referenceChecksum(c); got != want {
			t.Fatalf("context %d: Checksum %#x, reference fold %#x", i, got, want)
		}
	}
}

func TestZeroRateInjectorChangesNothing(t *testing.T) {
	const loops, warps = 300, 2
	plain := mustNewDevice(TestConfig())
	if _, err := runEpisode(t, plain, loops, warps); err != nil {
		t.Fatal(err)
	}
	faulty := mustNewDevice(TestConfig())
	inject(t, faulty, faults.Config{Seed: 1}) // all rates zero, checksums on
	if _, err := runEpisode(t, faulty, loops, warps); err != nil {
		t.Fatal(err)
	}
	if plain.Now() != faulty.Now() {
		t.Errorf("zero-rate injector perturbed timing: %d vs %d cycles", plain.Now(), faulty.Now())
	}
	if i := plain.Mem.Diff(faulty.Mem); i >= 0 {
		t.Fatalf("zero-rate injector perturbed mem[%d]: %d vs %d", i, plain.Mem.Load(i), faulty.Mem.Load(i))
	}
	if n := faulty.FaultStats().Total(); n != 0 {
		t.Errorf("zero-rate injector reported %d faults", n)
	}
}

func TestCorruptionDetectedByChecksum(t *testing.T) {
	d := mustNewDevice(TestConfig())
	inject(t, d, faults.Config{Seed: 7, CorruptRate: 1})
	ep, err := runEpisode(t, d, 300, 2)
	var integ *IntegrityError
	if !errors.As(err, &integ) {
		t.Fatalf("corrupted context resumed without IntegrityError (err = %v)", err)
	}
	if integ.Stage != "checksum" {
		t.Errorf("detection stage = %q, want checksum", integ.Stage)
	}
	if ep.Faults.CorruptedContexts == 0 {
		t.Error("no corruption counted on the episode")
	}
	if ep.Faults.ChecksumMismatches == 0 {
		t.Error("no checksum mismatch counted on the episode")
	}
}

func TestCorruptionCaughtByOracleWithoutChecksum(t *testing.T) {
	d := mustNewDevice(TestConfig())
	inject(t, d, faults.Config{Seed: 7, CorruptRate: 1, DisableChecksum: true})
	d.SetResumeChecker(func(w *Warp) error {
		snap := w.Snapshot()
		if snap == nil {
			return &IntegrityError{WarpID: w.ID, Stage: "oracle", Detail: "no snapshot"}
		}
		for i := 0; i < w.Prog.NumVRegs; i++ {
			for l := range w.VRegs[i] {
				if w.VRegs[i][l] != snap.VRegs[i][l] {
					return &IntegrityError{WarpID: w.ID, Stage: "oracle", Detail: "vreg diverged"}
				}
			}
		}
		return nil
	})
	_, err := runEpisode(t, d, 300, 2)
	var integ *IntegrityError
	if !errors.As(err, &integ) {
		t.Fatalf("corruption with checksums off escaped the oracle (err = %v)", err)
	}
	if integ.Stage != "oracle" {
		t.Errorf("detection stage = %q, want oracle", integ.Stage)
	}
}

func TestResumeCheckerSeesRestoredState(t *testing.T) {
	const loops, warps = 300, 2
	d := mustNewDevice(TestConfig())
	checked := 0
	d.SetResumeChecker(func(w *Warp) error {
		snap := w.Snapshot()
		if snap == nil {
			t.Fatalf("warp %d resumed without a snapshot", w.ID)
		}
		if w.PC != snap.PC || w.DynCount != snap.DynCount {
			t.Errorf("warp %d resumed at pc %d/dyn %d, snapshot %d/%d",
				w.ID, w.PC, w.DynCount, snap.PC, snap.DynCount)
		}
		// The naive technique restores every named register exactly (the
		// alignment-padding registers stay poisoned and are excluded).
		for i := 0; i < w.Prog.NumVRegs; i++ {
			for l := range w.VRegs[i] {
				if w.VRegs[i][l] != snap.VRegs[i][l] {
					t.Errorf("warp %d v%d[%d] = %#x, snapshot %#x", w.ID, i, l, w.VRegs[i][l], snap.VRegs[i][l])
				}
			}
		}
		for i := 0; i < w.Prog.NumSRegs; i++ {
			if w.SRegs[i] != snap.SRegs[i] {
				t.Errorf("warp %d s%d = %#x, snapshot %#x", w.ID, i, w.SRegs[i], snap.SRegs[i])
			}
		}
		if w.Exec != snap.Exec {
			t.Errorf("warp %d EXEC = %#x, snapshot %#x", w.ID, w.Exec, snap.Exec)
		}
		checked++
		return nil
	})
	ep, err := runEpisode(t, d, loops, warps)
	if err != nil {
		t.Fatal(err)
	}
	if checked != len(ep.Victims) {
		t.Errorf("oracle ran for %d warps, want %d", checked, len(ep.Victims))
	}
	checkSum(t, d, loops, warps)
}

func TestTransientTransferFaultsRetryAndRecover(t *testing.T) {
	const loops, warps = 300, 2
	d := mustNewDevice(TestConfig())
	inject(t, d, faults.Config{Seed: 3, CtxSaveFailRate: 0.3, CtxRestoreFailRate: 0.3,
		MaxRetries: 12, BackoffCycles: 4})
	ep, err := runEpisode(t, d, loops, warps)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Faults.TransientRetries == 0 {
		t.Error("no transient retries recorded at 30% fault rate")
	}
	st := d.FaultStats()
	if st.TransientSaveFaults == 0 && st.TransientRestoreFaults == 0 {
		t.Error("injector recorded no transfer faults")
	}
	checkSum(t, d, loops, warps)
}

func TestPermanentTransferFaultEscalates(t *testing.T) {
	d := mustNewDevice(TestConfig())
	inject(t, d, faults.Config{Seed: 5, CtxSaveFailRate: 1, PermanentFrac: 1, MaxRetries: 3})
	_, err := runEpisode(t, d, 200, 2)
	var xfer *TransferFaultError
	if !errors.As(err, &xfer) {
		t.Fatalf("permanent fault did not escalate (err = %v)", err)
	}
	if !xfer.Permanent || !xfer.Save {
		t.Errorf("escalated fault = %+v, want permanent save fault", xfer)
	}
}

func TestExhaustedRetriesEscalate(t *testing.T) {
	d := mustNewDevice(TestConfig())
	inject(t, d, faults.Config{Seed: 5, CtxSaveFailRate: 1, MaxRetries: 2, BackoffCycles: 1})
	_, err := runEpisode(t, d, 200, 2)
	var xfer *TransferFaultError
	if !errors.As(err, &xfer) {
		t.Fatalf("exhausted retries did not escalate (err = %v)", err)
	}
	if xfer.Permanent {
		t.Error("transient escalation reported as permanent")
	}
	if xfer.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (first issue + MaxRetries)", xfer.Attempts)
	}
}

func TestSignalDropAndRedelivery(t *testing.T) {
	d := mustNewDevice(TestConfig())
	inject(t, d, faults.Config{Seed: 11, SignalDropRate: 0.9})
	launchSum(t, d, 300, 2)
	if err := d.RunUntil(func() bool { return d.Now() > 200 }, 1_000_000); err != nil {
		t.Fatal(err)
	}
	dropped, delivered := 0, false
	var ep *Episode
	for attempt := 0; attempt < 64; attempt++ {
		var err error
		ep, err = d.Preempt(0, naiveRuntime{})
		if err == nil {
			delivered = true
			break
		}
		if !errors.Is(err, ErrSignalLost) {
			t.Fatal(err)
		}
		dropped++
	}
	if !delivered {
		t.Fatal("signal never delivered in 64 attempts at 90% drop rate")
	}
	if dropped == 0 {
		t.Error("no drops observed at 90% drop rate (seed-dependent; pick another seed)")
	}
	if d.FaultStats().DroppedSignals != dropped {
		t.Errorf("stats count %d drops, observed %d", d.FaultStats().DroppedSignals, dropped)
	}
	if err := d.RunUntil(ep.Saved, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if err := d.Resume(ep); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	checkSum(t, d, 300, 2)
}

func TestDuplicateSignalAbsorbed(t *testing.T) {
	const loops, warps = 300, 2
	d := mustNewDevice(TestConfig())
	inject(t, d, faults.Config{Seed: 2, SignalDupRate: 1})
	ep, err := runEpisode(t, d, loops, warps)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Faults.AbsorbedDupSignals == 0 {
		t.Error("no duplicate signals absorbed at 100% dup rate")
	}
	checkSum(t, d, loops, warps)
}

func TestStallsSlowTheRun(t *testing.T) {
	const loops, warps = 300, 2
	plain := mustNewDevice(TestConfig())
	if _, err := runEpisode(t, plain, loops, warps); err != nil {
		t.Fatal(err)
	}
	stalled := mustNewDevice(TestConfig())
	inject(t, stalled, faults.Config{Seed: 9, StallRate: 0.5, StallCycles: 100})
	if _, err := runEpisode(t, stalled, loops, warps); err != nil {
		t.Fatal(err)
	}
	if stalled.Now() <= plain.Now() {
		t.Errorf("stall injection did not slow the run: %d vs %d cycles", stalled.Now(), plain.Now())
	}
	if stalled.FaultStats().Stalls == 0 {
		t.Error("no stalls counted")
	}
	checkSum(t, stalled, loops, warps)
}

func TestInjectFaultsRejectsBadConfig(t *testing.T) {
	d := mustNewDevice(TestConfig())
	if err := d.InjectFaults(faults.Config{Seed: 1, CorruptRate: 1.5}); err == nil {
		t.Error("rate > 1 must be rejected")
	}
	if err := d.InjectFaults(faults.Config{Seed: 1, MaxRetries: -1}); err == nil {
		t.Error("negative retries must be rejected")
	}
}

// TestFaultDetectedClasses: the four in-band detection classes, wrapped
// as callers see them, are detections; a drained SM, a blown cycle
// budget and an unclassed error are not.
func TestFaultDetectedClasses(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("episode: %w", err) }
	for _, err := range []error{
		wrap(&TransferFaultError{Save: true, Permanent: true}),
		wrap(&IntegrityError{Stage: "checksum"}),
		wrap(ErrSignalLost),
		wrap(&faultError{warp: &Warp{}, in: &isa.Instruction{}, msg: "bad address"}),
	} {
		if !FaultDetected(err) {
			t.Errorf("FaultDetected(%v) = false", err)
		}
	}
	for _, err := range []error{nil, wrap(ErrDrained), wrap(&BudgetError{}), errors.New("boom")} {
		if FaultDetected(err) {
			t.Errorf("FaultDetected(%v) = true", err)
		}
	}
}
