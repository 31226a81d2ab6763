// Package sweep drives the generated corpus through the simulator and
// every preemption technique, differentially checking each run against
// the host-side golden interpreter. One seed buys:
//
//   - an uninterrupted run, byte-compared against the interpreter over
//     the whole device memory;
//   - scan-vs-readyqueue lockstep and epoch-parallel shard oracles
//     (sampled): the reference scheduler and the sharded engine must
//     reproduce the exact cycle count and memory image;
//   - one forced mid-flight preemption episode per technique per signal
//     fraction — preempt, save, resume, finish — with the final memory
//     byte-compared against the interpreter again;
//   - a resume-integrity oracle (sampled): live-in registers at the
//     resumed signal point must match the signal-time snapshot;
//   - a snapshot round-trip oracle (sampled): a whole-device capture
//     taken mid-episode must decode∘encode to identity.
package sweep

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ctxback/internal/cfg"
	"ctxback/internal/faults"
	"ctxback/internal/gen"
	"ctxback/internal/isa"
	"ctxback/internal/liveness"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
	"ctxback/internal/snapshot"
)

// Options configures a sweep.
type Options struct {
	Cfg         sim.Config
	Kinds       []preempt.Kind
	SignalFracs []float64
	MaxCycles   int64
	// Oracle strides: every Nth seed additionally runs the named oracle
	// (0 disables it).
	ShardsEvery    int
	ScanEvery      int
	IntegrityEvery int
	SnapshotEvery  int
	ChaosEvery     int
	// ChaosRate is the injected fault rate of the chaos oracle.
	ChaosRate float64
}

// DefaultOptions covers all 8 techniques with two forced preemption
// points and all oracles sampled.
func DefaultOptions() Options {
	return Options{
		Cfg:            sim.TestConfig(),
		Kinds:          preempt.ExtendedKinds(),
		SignalFracs:    []float64{0.3, 0.7},
		MaxCycles:      100_000_000,
		ShardsEvery:    4,
		ScanEvery:      4,
		IntegrityEvery: 2,
		SnapshotEvery:  8,
		ChaosEvery:     4,
		ChaosRate:      0.2,
	}
}

// KindCount tallies one technique's episodes across a sweep.
type KindCount struct {
	Pass    int // episode ran and final memory matched the interpreter
	Drained int // kernel finished before the signal (benign)
	Skipped int // technique refused construction (e.g. non-idempotent)
	Fail    int
}

// Failure is one divergence, with enough context to minimize.
type Failure struct {
	Seed  uint64
	Kind  preempt.Kind
	Stage string
	Err   error
}

func (f Failure) String() string {
	if f.Stage == "golden" || f.Stage == "scan" || f.Stage == "shards" || f.Stage == "snapshot" {
		return fmt.Sprintf("seed %d [%s]: %v", f.Seed, f.Stage, f.Err)
	}
	return fmt.Sprintf("seed %d [%s %v]: %v", f.Seed, f.Stage, f.Kind, f.Err)
}

// Report aggregates a sweep.
type Report struct {
	Seeds    int
	Passed   int // seeds with zero failures
	PerKind  map[preempt.Kind]*KindCount
	Failures []Failure

	ShardRuns, ScanRuns, IntegrityRuns, SnapshotRuns int
	// Chaos oracle tallies: every injected-fault episode must end
	// clean, absorbed in-episode, or detected-and-degraded. Silent
	// wrong output and failed degradation land in Failures.
	ChaosRuns, ChaosClean, ChaosRecovered, ChaosFallback int
}

func (r *Report) kind(k preempt.Kind) *KindCount {
	c := r.PerKind[k]
	if c == nil {
		c = &KindCount{}
		r.PerKind[k] = c
	}
	return c
}

// merge folds one seed's result into the report (called in seed order).
func (r *Report) merge(s *SeedResult) {
	r.Seeds++
	if len(s.Failures) == 0 {
		r.Passed++
	}
	r.Failures = append(r.Failures, s.Failures...)
	for k, c := range s.PerKind {
		t := r.kind(k)
		t.Pass += c.Pass
		t.Drained += c.Drained
		t.Skipped += c.Skipped
		t.Fail += c.Fail
	}
	r.ShardRuns += s.ShardRuns
	r.ScanRuns += s.ScanRuns
	r.IntegrityRuns += s.IntegrityRuns
	r.SnapshotRuns += s.SnapshotRuns
	r.ChaosRuns += s.ChaosRuns
	r.ChaosClean += s.ChaosClean
	r.ChaosRecovered += s.ChaosRecovered
	r.ChaosFallback += s.ChaosFallback
}

// Summary renders the per-technique table in presentation order.
func (r *Report) Summary() string {
	kinds := make([]preempt.Kind, 0, len(r.PerKind))
	for k := range r.PerKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	out := fmt.Sprintf("seeds %d passed %d failed %d (oracles: shards %d, scan %d, integrity %d, snapshot %d, chaos %d)\n",
		r.Seeds, r.Passed, r.Seeds-r.Passed, r.ShardRuns, r.ScanRuns, r.IntegrityRuns, r.SnapshotRuns, r.ChaosRuns)
	if r.ChaosRuns > 0 {
		out += fmt.Sprintf("  chaos: clean %d recovered %d fallback %d\n",
			r.ChaosClean, r.ChaosRecovered, r.ChaosFallback)
	}
	for _, k := range kinds {
		c := r.PerKind[k]
		out += fmt.Sprintf("  %-18s pass %-6d drained %-4d skipped %-4d fail %d\n",
			k.String(), c.Pass, c.Drained, c.Skipped, c.Fail)
	}
	return out
}

// SeedResult is one seed's outcome.
type SeedResult struct {
	Seed     uint64
	PerKind  map[preempt.Kind]*KindCount
	Failures []Failure

	ShardRuns, ScanRuns, IntegrityRuns, SnapshotRuns     int
	ChaosRuns, ChaosClean, ChaosRecovered, ChaosFallback int
}

func (s *SeedResult) kind(k preempt.Kind) *KindCount {
	c := s.PerKind[k]
	if c == nil {
		c = &KindCount{}
		s.PerKind[k] = c
	}
	return c
}

func (s *SeedResult) fail(kind preempt.Kind, stage string, err error) {
	s.Failures = append(s.Failures, Failure{Seed: s.Seed, Kind: kind, Stage: stage, Err: err})
}

// Run sweeps seeds [start, start+n) with a deterministic worker pool:
// results are merged in seed order, so the report is byte-identical at
// every parallelism setting.
func Run(start, n uint64, procs int, opt Options) *Report {
	if procs < 1 {
		procs = 1
	}
	results := make([]*SeedResult, n)
	var wg sync.WaitGroup
	next := make(chan uint64)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = RunSeed(start+i, opt)
			}
		}()
	}
	for i := uint64(0); i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	rep := &Report{PerKind: make(map[preempt.Kind]*KindCount)}
	for _, s := range results {
		rep.merge(s)
	}
	return rep
}

// RunSeed runs every check for one seed.
func RunSeed(seed uint64, opt Options) *SeedResult {
	res := &SeedResult{Seed: seed, PerKind: make(map[preempt.Kind]*KindCount)}
	p := gen.Generate(seed)

	// Uninterrupted golden run.
	golden, err := runPlain(p, opt, func(d *sim.Device) {})
	if err != nil {
		res.fail(0, "golden", err)
		return res
	}
	goldenCycles := golden.Now()
	if err := p.CheckDevice(golden); err != nil {
		res.fail(0, "golden", err)
		return res
	}

	// Scheduler and sharding oracles: same semantics, same clock.
	if on(seed, opt.ScanEvery) {
		res.ScanRuns++
		d, err := runPlain(p, opt, func(d *sim.Device) { d.UseReferenceScheduler() })
		if err != nil {
			res.fail(0, "scan", err)
		} else if err := p.CheckDevice(d); err != nil {
			res.fail(0, "scan", err)
		} else if d.Now() != goldenCycles {
			res.fail(0, "scan", fmt.Errorf("reference scheduler finished at cycle %d, ready queue at %d", d.Now(), goldenCycles))
		}
	}
	if on(seed, opt.ShardsEvery) {
		res.ShardRuns++
		d, err := runPlain(p, opt, func(d *sim.Device) { d.SetShards(2) })
		if err != nil {
			res.fail(0, "shards", err)
		} else if err := p.CheckDevice(d); err != nil {
			res.fail(0, "shards", err)
		} else if d.Now() != goldenCycles {
			res.fail(0, "shards", fmt.Errorf("sharded run finished at cycle %d, unsharded at %d", d.Now(), goldenCycles))
		}
	}

	// Forced mid-flight preemption under every technique.
	var live *liveness.Info
	if on(seed, opt.IntegrityEvery) {
		if g, err := cfg.Build(p.Prog); err == nil {
			live = liveness.Analyze(g)
		}
	}
	for _, kind := range opt.Kinds {
		count := res.kind(kind)
		for fi, frac := range opt.SignalFracs {
			signal := int64(frac * float64(goldenCycles))
			if signal < 1 {
				signal = 1
			}
			snapTrip := on(seed, opt.SnapshotEvery) && fi == 0 && preempt.Relocatable(kind)
			outcome, err := runEpisode(p, opt, kind, signal, live, snapTrip, res)
			switch outcome {
			case episodeSkipped:
				count.Skipped++
			case episodeDrained:
				count.Drained++
			case episodePass:
				count.Pass++
			case episodeFail:
				count.Fail++
				res.fail(kind, fmt.Sprintf("episode@%.2f", frac), err)
			}
			if outcome == episodeSkipped {
				break // construction failed; fracs won't change that
			}
		}
	}

	// Chaos oracle (sampled): one fault-injected episode, rotating the
	// technique with the seed. The episode must end clean, absorbed, or
	// detected-and-degraded — silent wrong output fails the seed.
	if on(seed, opt.ChaosEvery) && len(opt.Kinds) > 0 && goldenCycles > 1 {
		runChaos(p, opt, goldenCycles, res)
	}
	return res
}

// runChaos injects seed-derived faults (context-transfer failures,
// context corruption, lost/duplicated signals) into one forced episode
// and classifies the outcome the way the harness chaos experiment does,
// but against the golden interpreter instead of a CPU reference.
func runChaos(p *gen.Program, opt Options, goldenCycles int64, res *SeedResult) {
	// Rotate the technique with the seed; skip constructors that refuse
	// this program (e.g. SM-flushing a non-idempotent kernel).
	var tech preempt.Technique
	var kind preempt.Kind
	for i := range opt.Kinds {
		kind = opt.Kinds[(int(res.Seed)+i)%len(opt.Kinds)]
		if t, err := preempt.New(kind, p.Prog); err == nil {
			tech = t
			break
		}
	}
	if tech == nil {
		return
	}
	res.ChaosRuns++
	signal := goldenCycles / 2
	if signal < 1 {
		signal = 1
	}
	// Alternate between the configured rate and a light one-tenth rate,
	// the same split the harness chaos experiment sweeps: heavy rates
	// exercise detection and degradation, light rates the in-episode
	// absorption paths (retries, re-raised signals).
	rate := opt.ChaosRate
	if res.Seed%(2*uint64(opt.ChaosEvery)) != 0 {
		rate /= 10
	}
	fcfg := faults.Preset(faults.DeriveSeed(res.Seed, 0xC4A05), rate)

	d, err := sim.NewDevice(opt.Cfg)
	if err != nil {
		res.fail(kind, "chaos", err)
		return
	}
	if err := d.InjectFaults(fcfg); err != nil {
		res.fail(kind, "chaos", err)
		return
	}
	d.AttachRuntime(tech)
	if _, err := p.Launch(d); err != nil {
		res.fail(kind, "chaos", err)
		return
	}
	if err := d.RunToCycle(signal, opt.MaxCycles); err != nil {
		res.fail(kind, "chaos", fmt.Errorf("run to signal: %w", err))
		return
	}

	degrade := func(detected error) {
		// Detected in-band: the episode abandons the device and the job
		// re-runs fault-free from scratch (the sweep's analogue of the
		// harness BASELINE fallback).
		clean, err := runPlain(p, opt, func(d *sim.Device) {})
		if err != nil {
			res.fail(kind, "chaos-fallback", fmt.Errorf("after %v: %w", detected, err))
			return
		}
		if err := p.CheckDevice(clean); err != nil {
			res.fail(kind, "chaos-fallback", fmt.Errorf("after %v: %w", detected, err))
			return
		}
		res.ChaosFallback++
	}

	var ep *sim.Episode
	reRaised := 0
	for attempt := 0; ; attempt++ {
		ep, err = d.Preempt(0, tech)
		if err == nil {
			break
		}
		if errors.Is(err, sim.ErrSignalLost) {
			reRaised++
			if attempt+1 >= 8 {
				degrade(err)
				return
			}
			continue
		}
		if errors.Is(err, sim.ErrDrained) {
			// Nothing left to preempt; the remainder must still verify.
			if err := d.Run(opt.MaxCycles); err != nil {
				res.fail(kind, "chaos", err)
			} else if err := p.CheckDevice(d); err != nil {
				res.fail(kind, "chaos", fmt.Errorf("silent wrong after drain: %w", err))
			} else {
				res.ChaosClean++
			}
			return
		}
		res.fail(kind, "chaos", fmt.Errorf("preempt: %w", err))
		return
	}
	for _, phase := range []func() error{
		func() error { return d.RunUntil(ep.Saved, opt.MaxCycles) },
		func() error { return d.Resume(ep) },
		func() error { return d.RunUntil(ep.Finished, opt.MaxCycles) },
		func() error { return d.Run(opt.MaxCycles) },
	} {
		if err := phase(); err != nil {
			if chaosDetected(err) {
				degrade(err)
			} else {
				res.fail(kind, "chaos", err)
			}
			return
		}
	}
	if err := p.CheckDevice(d); err != nil {
		res.fail(kind, "chaos", fmt.Errorf("silent wrong: %w", err))
		return
	}
	if reRaised+ep.Faults.TransientRetries+ep.Faults.AbsorbedDupSignals+ep.Faults.CorruptedContexts > 0 {
		res.ChaosRecovered++
	} else {
		res.ChaosClean++
	}
}

// chaosDetected reports whether err is an in-band fault detection (vs
// an infrastructure failure that must fail the seed).
func chaosDetected(err error) bool {
	var xfer *sim.TransferFaultError
	var integ *sim.IntegrityError
	return errors.As(err, &xfer) || errors.As(err, &integ) ||
		errors.Is(err, sim.ErrSignalLost) || sim.IsExecutionFault(err)
}

func on(seed uint64, every int) bool {
	return every > 0 && seed%uint64(every) == 0
}

// runPlain runs the program to completion on a fresh device with no
// runtime attached.
func runPlain(p *gen.Program, opt Options, tweak func(d *sim.Device)) (*sim.Device, error) {
	d, err := sim.NewDevice(opt.Cfg)
	if err != nil {
		return nil, err
	}
	tweak(d)
	if _, err := p.Launch(d); err != nil {
		return nil, err
	}
	if err := d.Run(opt.MaxCycles); err != nil {
		return nil, err
	}
	return d, nil
}

type episodeOutcome int

const (
	episodePass episodeOutcome = iota
	episodeDrained
	episodeSkipped
	episodeFail
)

// runEpisode forces one preempt/save/resume/finish episode at
// signalCycle under kind and checks the completed run against the
// interpreter. With snapTrip it also round-trips a whole-device
// snapshot while the episode is parked.
func runEpisode(p *gen.Program, opt Options, kind preempt.Kind, signalCycle int64,
	live *liveness.Info, snapTrip bool, res *SeedResult) (episodeOutcome, error) {
	tech, err := preempt.New(kind, p.Prog)
	if err != nil {
		// Expected for SM-flushing (and Chimera) on non-idempotent
		// programs; the sweep records the refusal rather than failing.
		return episodeSkipped, nil
	}
	d, err := sim.NewDevice(opt.Cfg)
	if err != nil {
		return episodeFail, err
	}
	d.AttachRuntime(tech)
	if live != nil {
		d.SetResumeChecker(integrityChecker(live, p.WarpsPerBlock))
		res.IntegrityRuns++
	}
	launch, err := p.Launch(d)
	if err != nil {
		return episodeFail, err
	}
	if err := d.RunToCycle(signalCycle, opt.MaxCycles); err != nil {
		return episodeFail, fmt.Errorf("run to signal: %w", err)
	}
	if launch.Done() {
		return episodeDrained, nil
	}
	ep, err := d.Preempt(0, tech)
	if err != nil {
		if errors.Is(err, sim.ErrDrained) {
			return episodeDrained, nil
		}
		return episodeFail, fmt.Errorf("preempt: %w", err)
	}
	if err := d.RunUntil(ep.Saved, opt.MaxCycles); err != nil {
		return episodeFail, fmt.Errorf("save: %w", err)
	}
	if snapTrip {
		res.SnapshotRuns++
		if err := snapshotRoundTrip(d); err != nil {
			res.fail(kind, "snapshot", err)
		}
	}
	if err := d.Resume(ep); err != nil {
		return episodeFail, fmt.Errorf("resume: %w", err)
	}
	if err := d.RunUntil(ep.Finished, opt.MaxCycles); err != nil {
		return episodeFail, fmt.Errorf("replay: %w", err)
	}
	if err := d.Run(opt.MaxCycles); err != nil {
		return episodeFail, fmt.Errorf("completion: %w", err)
	}
	if err := p.CheckDevice(d); err != nil {
		return episodeFail, err
	}
	return episodePass, nil
}

// snapshotRoundTrip captures the parked device and checks the canonical
// encode∘decode identity the downstream checksums depend on.
func snapshotRoundTrip(d *sim.Device) error {
	snap, enc := snapshot.Capture(d, 1)
	if err := snap.State.CheckInvariants(); err != nil {
		return fmt.Errorf("captured state violates invariants: %w", err)
	}
	again, err := snapshot.Decode(enc)
	if err != nil {
		return fmt.Errorf("decode of fresh capture: %w", err)
	}
	if enc2 := snapshot.Encode(again); !equalBytes(enc, enc2) {
		return fmt.Errorf("decode∘encode not identity: %d bytes in, %d out", len(enc), len(enc2))
	}
	return nil
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// integrityChecker is the resume-integrity oracle: a warp that resumes
// exactly at its signal point must present its live-in architectural
// state unchanged. Warps resuming elsewhere (deferral or flashback
// targets, replayed checkpoints) are skipped — their progress position
// legitimately differs.
func integrityChecker(live *liveness.Info, warpsPerBlock int) func(w *sim.Warp) error {
	return func(w *sim.Warp) error {
		snap, rec := w.Snapshot(), w.Record()
		if snap == nil || rec == nil {
			return nil
		}
		if w.PC != rec.PCAtSignal || w.DynCount != rec.DynAtSignal {
			return nil
		}
		pc := rec.PCAtSignal
		return integrityDiff(w, snap, live.LiveIn[pc], live.EscIn[pc], warpsPerBlock)
	}
}

// integrityDiff compares a resumed warp against its signal-time
// snapshot over the live-in set (esc: the live vectors whose masked-out
// lanes are observable). Registers are checked in Sorted order, so when
// several diverge the error names the first in (class, index) order and
// its text is the same on every run.
func integrityDiff(w *sim.Warp, snap *sim.ArchSnapshot, live, esc isa.RegSet, warpsPerBlock int) error {
	fail := func(format string, args ...any) error {
		return &sim.IntegrityError{WarpID: w.ID, Stage: "gen-oracle",
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
				if lanes&(1<<uint(l)) == 0 {
					continue
				}
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
