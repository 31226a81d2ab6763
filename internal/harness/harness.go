// Package harness drives the paper's evaluation (§V): it runs every
// Table-I workload under every preemption technique on the simulator and
// regenerates Table I and Figures 7-10, plus the aggregate statistics
// and the ablation study of CTXBack's three techniques.
package harness

import (
	"errors"
	"fmt"

	"ctxback/internal/isa"
	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
	"ctxback/internal/trace"
)

// Options configures an evaluation.
type Options struct {
	Cfg    sim.Config
	Params kernels.Params
	// Samples is the number of preemption points per kernel x technique,
	// spread uniformly over the kernel's execution.
	Samples int
	// FillDevice sizes each kernel's grid to occupy every SM fully (one
	// wave), like the paper's persistent-thread batch jobs.
	FillDevice bool
	// Verify re-runs every preempted execution to completion and checks
	// the output against the CPU golden reference.
	Verify    bool
	MaxCycles int64
	// Parallelism is the episode worker-pool width: 0 uses GOMAXPROCS,
	// 1 is the legacy serial path, n>1 forces n workers. Reported
	// numbers are identical at every setting; only wall-clock changes.
	Parallelism int
	// Shards is ignored: every device runs its one serial loop.
	//
	// Deprecated: it selected the width of the epoch-parallel engine,
	// which is gone. The benchmark still sets it; the benchmark change
	// that redefines its sharded-episode workload removes it.
	Shards int
	// Metrics, when non-nil, receives evaluation counters and latency
	// histograms (episodes measured/drained, per-phase cycle
	// distributions). All updates are atomic, so the registry is shared
	// safely by the parallel worker pool.
	Metrics *trace.Registry
	// Logf, when non-nil, receives diagnostic messages (e.g. sample
	// points collapsing on short golden runs). nil is silent; reported
	// numbers never depend on it.
	Logf func(format string, args ...any)
}

// logf forwards to Options.Logf when set.
func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// DefaultOptions is the configuration used for EXPERIMENTS.md.
func DefaultOptions() Options {
	cfg := sim.DefaultConfig()
	return Options{
		Cfg:        cfg,
		Params:     kernels.EvalParams(),
		Samples:    5,
		FillDevice: true,
		Verify:     true,
		MaxCycles:  2_000_000_000,
	}
}

// QuickOptions is a reduced configuration for benchmarks and smoke runs.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Samples = 2
	o.Verify = false
	p := kernels.TestParams()
	o.Params = p
	o.FillDevice = false
	o.Cfg = sim.TestConfig()
	return o
}

// prepared bundles a sized workload with its golden run length.
type prepared struct {
	wl           *kernels.Workload
	goldenCycles int64
}

// prepareCold sizes the workload grid (optionally filling the device)
// and measures the uninterrupted run. It is the compute path behind
// prepare (see artifact.go), which serves the fill size and golden
// cycle count from the artifact store when one is configured.
func (o *Options) prepareCold(factory kernels.Factory) (*prepared, error) {
	wl, err := factory(o.Params)
	if err != nil {
		return nil, err
	}
	if o.FillDevice {
		d, err := sim.NewDevice(o.Cfg)
		if err != nil {
			return nil, err
		}
		occ, err := d.ComputeOccupancy(wl.Prog, o.Params.WarpsPerBlock)
		if err != nil {
			return nil, err
		}
		p := o.Params
		p.NumBlocks = occ.BlocksPerSM * o.Cfg.NumSMs
		wl, err = factory(p)
		if err != nil {
			return nil, err
		}
	}
	d, err := sim.NewDevice(o.Cfg)
	if err != nil {
		return nil, err
	}
	if _, err := wl.Launch(d); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.Abbrev, err)
	}
	if err := d.Run(o.MaxCycles); err != nil {
		return nil, fmt.Errorf("%s golden: %w", wl.Abbrev, err)
	}
	if o.Verify {
		if err := wl.Verify(d); err != nil {
			return nil, fmt.Errorf("%s golden verify: %w", wl.Abbrev, err)
		}
	}
	return &prepared{wl: wl, goldenCycles: d.Now()}, nil
}

// EpisodeStats is one measured preemption episode. The four phase fields
// decompose the two headline latencies: for a single episode
// DrainCycles+SaveCycles == PreemptCycles and RestoreCycles+ReplayCycles
// == ResumeCycles exactly (sim.Episode.Phases reconciles by
// construction); averaged stats reconcile to within integer-division
// rounding per field.
type EpisodeStats struct {
	PreemptCycles int64
	ResumeCycles  int64
	SavedBytes    int64
	Victims       int64

	DrainCycles   int64 // signal → last victim entered its routine
	SaveCycles    int64 // → SM released
	RestoreCycles int64 // resume start → last context restored
	ReplayCycles  int64 // → logical progress regained
}

// classifyPreemptErr discriminates the benign drained outcome (the SM
// had no running warps left — an expected race between the signal and
// kernel completion) from real preemption failures, which must
// propagate. Non-drain errors pass through unchanged.
func classifyPreemptErr(err error) (drained bool, failure error) {
	if err == nil {
		return false, nil
	}
	if errors.Is(err, sim.ErrDrained) {
		return true, nil
	}
	return false, err
}

// measure preempts SM 0 at signalCycle under the technique, resumes
// immediately after the save completes, and (optionally) verifies the
// completed run; it also returns the episode's device as it stopped.
// ok=false when the kernel drained before the signal. With from nil the
// episode simulates its prefix from launch; otherwise it starts from
// from, the golden run's state at signalCycle (fork.go), which only a
// technique that never instruments the kernel may do.
func (o *Options) measure(p *prepared, kind preempt.Kind, signalCycle int64, from *sim.DeviceState) (EpisodeStats, bool, *sim.Device, error) {
	tech, err := preempt.New(kind, p.wl.Prog)
	if err != nil {
		return EpisodeStats{}, false, nil, fmt.Errorf("%s/%v: %w", p.wl.Abbrev, kind, err)
	}
	d, err := sim.NewDevice(o.Cfg)
	if err != nil {
		return EpisodeStats{}, false, nil, err
	}
	var launch *sim.Launch
	if from == nil {
		d.AttachRuntime(tech)
		if launch, err = p.wl.Launch(d); err != nil {
			return EpisodeStats{}, false, d, err
		}
		if err := d.RunToCycle(signalCycle, o.MaxCycles); err != nil {
			return EpisodeStats{}, false, d, err
		}
	} else {
		idx, err := d.ImportState(from, tech, []*isa.Program{p.wl.Prog})
		if err != nil {
			return EpisodeStats{}, false, d, fmt.Errorf("%s/%v fork: %w", p.wl.Abbrev, kind, err)
		}
		launch = idx.Launches[0]
	}
	if launch.Done() {
		return EpisodeStats{}, false, d, nil
	}
	ep, err := d.Preempt(0, tech)
	if err != nil {
		drained, failure := classifyPreemptErr(err)
		if drained {
			if m := o.Metrics; m != nil {
				m.Counter("episodes.drained").Add(1)
			}
			return EpisodeStats{}, false, d, nil
		}
		return EpisodeStats{}, false, d, fmt.Errorf("%s/%v preempt: %w", p.wl.Abbrev, kind, failure)
	}
	if err := d.RunUntil(ep.Saved, o.MaxCycles); err != nil {
		return EpisodeStats{}, false, d, fmt.Errorf("%s/%v save: %w", p.wl.Abbrev, kind, err)
	}
	if err := d.Resume(ep); err != nil {
		return EpisodeStats{}, false, d, err
	}
	if err := d.RunUntil(ep.Finished, o.MaxCycles); err != nil {
		return EpisodeStats{}, false, d, fmt.Errorf("%s/%v resume: %w", p.wl.Abbrev, kind, err)
	}
	ph := ep.Phases()
	stats := EpisodeStats{
		PreemptCycles: ep.PreemptLatencyCycles(),
		ResumeCycles:  ep.ResumeCycles(),
		SavedBytes:    ep.SavedBytes(),
		Victims:       int64(len(ep.Victims)),
		DrainCycles:   ph.Drain,
		SaveCycles:    ph.Save,
		RestoreCycles: ph.Restore,
		ReplayCycles:  ph.Replay,
	}
	if m := o.Metrics; m != nil {
		m.Counter("episodes.measured").Add(1)
		m.Counter("episodes.saved_bytes").Add(stats.SavedBytes)
		b := trace.DefaultCycleBuckets
		m.Histogram("episode.preempt_cycles", b).Observe(stats.PreemptCycles)
		m.Histogram("episode.resume_cycles", b).Observe(stats.ResumeCycles)
		m.Histogram("episode.drain_cycles", b).Observe(ph.Drain)
		m.Histogram("episode.save_cycles", b).Observe(ph.Save)
		m.Histogram("episode.restore_cycles", b).Observe(ph.Restore)
		m.Histogram("episode.replay_cycles", b).Observe(ph.Replay)
	}
	if o.Verify {
		if err := d.Run(o.MaxCycles); err != nil {
			return stats, true, d, fmt.Errorf("%s/%v completion: %w", p.wl.Abbrev, kind, err)
		}
		if err := p.wl.Verify(d); err != nil {
			return stats, true, d, fmt.Errorf("%s/%v output corrupted by preemption: %w", p.wl.Abbrev, kind, err)
		}
	}
	return stats, true, d, nil
}

// samplePoints spreads n signal cycles over (0.15, 0.85) of the golden
// run, avoiding the ramp-up and drain phases. Points are clamped into
// [1, golden] (a zero-cycle signal would fire before any instruction
// issues) and de-duplicated: a short golden run collapses adjacent
// fractions onto the same cycle, so the result may hold fewer than n
// points — always at least one, strictly increasing, all distinct.
// Callers that want n samples should log the shortfall (see measureAvg
// and computeCells).
func samplePoints(golden int64, n int) []int64 {
	if n < 1 {
		n = 1
	}
	pts := make([]int64, 0, n)
	lo, hi := 0.15, 0.85
	for i := 0; i < n; i++ {
		f := 0.5
		if n > 1 {
			f = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		pt := min(max(int64(f*float64(golden)), 1), max(golden, 1))
		if len(pts) > 0 && pt <= pts[len(pts)-1] {
			continue
		}
		pts = append(pts, pt)
	}
	return pts
}

// measureAvg averages episode stats over the sample points (the serial
// path; the Runner's matrix fold shares foldEpisodes with it).
func (o *Options) measureAvg(p *prepared, kind preempt.Kind) (EpisodeStats, error) {
	pts := samplePoints(p.goldenCycles, o.Samples)
	if len(pts) < o.Samples {
		o.logf("%s/%v: golden run of %d cycles yields only %d distinct sample points (want %d)",
			p.wl.Abbrev, kind, p.goldenCycles, len(pts), o.Samples)
	}
	eps := make([]episodeResult, len(pts))
	for i, pt := range pts {
		st, ok, _, err := o.measure(p, kind, pt, nil)
		eps[i] = episodeResult{st: st, ok: ok, err: err}
		if err != nil {
			// Truncate to the attempted prefix: the unattempted tail is
			// zero-valued and must not reach the fold.
			eps = eps[:i+1]
			break
		}
	}
	return foldEpisodes(p.wl.Abbrev, kind, eps)
}

// runtimeCycles measures full-kernel execution with tech's
// instrumentation attached — the Fig 10 runtime overhead.
func (o *Options) runtimeCycles(p *prepared, tech preempt.Technique) (int64, error) {
	d, err := sim.NewDevice(o.Cfg)
	if err != nil {
		return 0, err
	}
	d.AttachRuntime(tech)
	if _, err := p.wl.Launch(d); err != nil {
		return 0, err
	}
	if err := d.Run(o.MaxCycles); err != nil {
		return 0, err
	}
	if o.Verify {
		if err := p.wl.Verify(d); err != nil {
			return 0, fmt.Errorf("%s/%v instrumented run corrupted output: %w", p.wl.Abbrev, tech.Kind(), err)
		}
	}
	return d.Now(), nil
}
