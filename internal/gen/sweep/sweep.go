// Package sweep drives the generated corpus through the simulator and
// every preemption technique, differentially checking each run against
// the host-side golden interpreter. One seed buys:
//
//   - an uninterrupted run, byte-compared against the interpreter over
//     the whole device memory;
//   - a scan-vs-readyqueue lockstep oracle (sampled): the reference
//     scheduler must reproduce the exact cycle count and memory image;
//   - one forced mid-flight preemption episode per technique per signal
//     fraction through internal/chaos's one episode driver — preempt,
//     save, resume, finish — with the final memory byte-compared
//     against the interpreter again;
//   - a resume-integrity oracle (sampled): live-in registers at the
//     resumed signal point must match the signal-time snapshot;
//   - a snapshot round-trip oracle (sampled): a whole-device capture
//     taken mid-episode must decode∘encode to identity;
//   - a chaos oracle (sampled): one fault-injected episode under the
//     resume-integrity oracle, folded through internal/chaos, must end
//     clean, recovered or degraded through the BASELINE fallback ladder.
package sweep

import (
	"bytes"
	"fmt"
	"sort"

	"ctxback/internal/cfg"
	"ctxback/internal/chaos"
	"ctxback/internal/faults"
	"ctxback/internal/gen"
	"ctxback/internal/liveness"
	"ctxback/internal/pool"
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
	if f.Stage == "golden" || f.Stage == "scan" || f.Stage == "snapshot" {
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

	ScanRuns, IntegrityRuns, SnapshotRuns, ChaosRuns int
	// Chaos tallies the chaos oracle's episodes by outcome: every one
	// must end clean, absorbed in-episode, or detected-and-degraded.
	// Silent wrong output and failed degradation land in Failures.
	Chaos [chaos.Fallback + 1]int
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
	r.ScanRuns += s.ScanRuns
	r.IntegrityRuns += s.IntegrityRuns
	r.SnapshotRuns += s.SnapshotRuns
	r.ChaosRuns += s.ChaosRuns
	for o, n := range s.Chaos {
		r.Chaos[o] += n
	}
}

// Summary renders the per-technique table in presentation order.
func (r *Report) Summary() string {
	kinds := make([]preempt.Kind, 0, len(r.PerKind))
	for k := range r.PerKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	out := fmt.Sprintf("seeds %d passed %d failed %d (oracles: scan %d, integrity %d, snapshot %d, chaos %d)\n",
		r.Seeds, r.Passed, r.Seeds-r.Passed, r.ScanRuns, r.IntegrityRuns, r.SnapshotRuns, r.ChaosRuns)
	if r.ChaosRuns > 0 {
		out += fmt.Sprintf("  chaos: clean %d recovered %d fallback %d\n",
			r.Chaos[chaos.Clean], r.Chaos[chaos.Recovered], r.Chaos[chaos.Fallback])
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

	ScanRuns, IntegrityRuns, SnapshotRuns, ChaosRuns int
	Chaos                                            [chaos.Fallback + 1]int
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

// Run sweeps seeds [start, start+n) on procs workers (pool.Run: 0 is
// one per GOMAXPROCS). Results are merged in seed order, so the report
// is byte-identical at every setting. The error is a seed that
// panicked.
func Run(start, n uint64, procs int, opt Options) (*Report, error) {
	results := make([]*SeedResult, n)
	if err := pool.Run(procs, int(n), func(i int) error {
		results[i] = RunSeed(start+uint64(i), opt)
		return nil
	}); err != nil {
		return nil, err
	}
	rep := &Report{PerKind: make(map[preempt.Kind]*KindCount)}
	for _, s := range results {
		rep.merge(s)
	}
	return rep, nil
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

	// Scheduler oracle: same semantics, same clock.
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

	// Forced mid-flight preemption under every technique; the
	// resume-integrity oracle rides along on sampled seeds, and on every
	// chaos episode.
	chaosOn := on(seed, opt.ChaosEvery) && len(opt.Kinds) > 0 && goldenCycles > 1
	var oracle, episodeOracle func(*sim.Warp) error
	if on(seed, opt.IntegrityEvery) || chaosOn {
		if g, err := cfg.Build(p.Prog); err == nil {
			oracle = chaos.Oracle(liveness.Analyze(g), p.WarpsPerBlock)
		}
	}
	if on(seed, opt.IntegrityEvery) {
		episodeOracle = oracle
	}
	for _, kind := range opt.Kinds {
		count := res.kind(kind)
		if _, err := preempt.New(kind, p.Prog); err != nil {
			// Expected for SM-flushing (and Chimera) on non-idempotent
			// programs; the sweep records the refusal rather than failing.
			count.Skipped++
			continue
		}
		for fi, frac := range opt.SignalFracs {
			signal := int64(frac * float64(goldenCycles))
			if signal < 1 {
				signal = 1
			}
			snapTrip := on(seed, opt.SnapshotEvery) && fi == 0 && preempt.Relocatable(kind)
			switch drained, err := runEpisode(p, opt, kind, signal, episodeOracle, snapTrip, res); {
			case err != nil:
				count.Fail++
				res.fail(kind, fmt.Sprintf("episode@%.2f", frac), err)
			case drained:
				count.Drained++
			default:
				count.Pass++
			}
		}
	}

	// Chaos oracle (sampled): one fault-injected episode, rotating the
	// technique with the seed. The episode must end clean, absorbed, or
	// detected-and-degraded — silent wrong output fails the seed.
	if chaosOn {
		runChaos(p, opt, goldenCycles, oracle, res)
	}
	return res
}

// runChaos runs one fault-injected episode (context-transfer failures,
// context corruption, lost/duplicated signals) under the resume-integrity
// oracle and folds it through internal/chaos, the policy the harness
// chaos experiment runs, but against the golden interpreter instead of a
// CPU reference: a detection climbs the BASELINE fallback ladder.
func runChaos(p *gen.Program, opt Options, goldenCycles int64, oracle func(*sim.Warp) error, res *SeedResult) {
	// Rotate the technique with the seed; skip constructors that refuse
	// this program (e.g. SM-flushing a non-idempotent kernel).
	var kind preempt.Kind
	refused := true
	for i := range opt.Kinds {
		kind = opt.Kinds[(int(res.Seed)+i)%len(opt.Kinds)]
		if _, err := preempt.New(kind, p.Prog); err == nil {
			refused = false
			break
		}
	}
	if refused {
		return
	}
	res.ChaosRuns++
	// Alternate between the configured rate and a light one-tenth rate,
	// the same split the harness chaos experiment sweeps: heavy rates
	// exercise detection and degradation, light rates the in-episode
	// absorption paths (retries, re-raised signals).
	rate := opt.ChaosRate
	if res.Seed%(2*uint64(opt.ChaosEvery)) != 0 {
		rate /= 10
	}
	job := chaos.Job{Cfg: opt.Cfg, Workload: p.Workload(), MaxCycles: opt.MaxCycles,
		Signal: int64(chaos.SignalFrac * float64(goldenCycles)), Oracle: oracle}
	fc := faults.Preset(faults.DeriveSeed(res.Seed, 0xC4A05), rate)
	run, err := job.Episode(kind, &fc)
	if err != nil {
		res.fail(kind, "chaos", err)
		return
	}
	r, err := job.Settle(run, fc)
	switch {
	case err != nil:
		res.fail(kind, "chaos-fallback", fmt.Errorf("after %s: %w", r.Detected, err))
	case r.Outcome == chaos.SilentWrong:
		res.fail(kind, "chaos", fmt.Errorf("silent wrong: %w", run.VerifyErr))
	case r.Outcome == chaos.Unrecoverable:
		res.fail(kind, "chaos-fallback", fmt.Errorf("no fallback rung completed after %s", r.Detected))
	default:
		res.Chaos[r.Outcome]++
	}
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

// runEpisode forces one preempt/save/resume/finish episode at
// signalCycle under kind (chaos.Job) and checks the completed run
// against the interpreter, under the resume-integrity oracle when one is
// given. With snapTrip its park hook also round-trips a whole-device
// snapshot of the parked episode. drained: the kernel drained before the
// signal.
func runEpisode(p *gen.Program, opt Options, kind preempt.Kind, signalCycle int64,
	oracle func(*sim.Warp) error, snapTrip bool, res *SeedResult) (drained bool, err error) {
	job := chaos.Job{Cfg: opt.Cfg, Workload: p.Workload(), Signal: signalCycle,
		MaxCycles: opt.MaxCycles, Oracle: oracle}
	if snapTrip {
		job.Park = func(d *sim.Device, ep *sim.Episode) (*sim.Device, *sim.Episode, func() error, error) {
			res.SnapshotRuns++
			if err := snapshotRoundTrip(d); err != nil {
				res.fail(kind, "snapshot", err)
			}
			return d, ep, nil, nil
		}
	}
	if oracle != nil {
		res.IntegrityRuns++
	}
	run, err := job.Episode(kind, nil)
	switch {
	case err != nil:
		return false, err
	case run.Detected != nil:
		return false, run.Detected
	}
	return run.Skipped, run.VerifyErr
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
	if enc2 := snapshot.Encode(again); !bytes.Equal(enc, enc2) {
		return fmt.Errorf("decode∘encode not identity: %d bytes in, %d out", len(enc), len(enc2))
	}
	return nil
}
