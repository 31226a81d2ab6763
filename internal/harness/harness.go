// Package harness drives the paper's evaluation (§V): it runs every
// Table-I workload under every preemption technique on the simulator and
// regenerates Table I and Figures 7-10, plus the aggregate statistics
// and the ablation study of CTXBack's three techniques.
package harness

import (
	"errors"
	"fmt"

	"ctxback/internal/chaos"
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
	// Parallelism is the worker count of the episode pool (pool.Run):
	// 0 is one per GOMAXPROCS, 1 runs inline. Reported numbers are
	// identical at every setting; only wall-clock changes.
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
		occ, err := o.Cfg.Occupancy(wl.Prog, o.Params.WarpsPerBlock)
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

// job is the episode of p signalled at cycle at, simulated from launch.
func (o *Options) job(p *prepared, at int64) chaos.Job {
	return chaos.Job{Cfg: o.Cfg, Workload: p.wl, Signal: at, MaxCycles: o.MaxCycles}
}

// measure drives j's episode under kind (chaos.Job.Drive): it preempts
// SM 0 at the signal, resumes immediately after the save completes, and
// (optionally) verifies the completed run; it also returns the
// episode's device as it stopped. ok=false when the kernel drained
// before the signal. With j.From set the episode starts from the golden
// run's state at the signal (fork.go), which only a technique that
// never instruments the kernel may do.
func (o *Options) measure(j chaos.Job, kind preempt.Kind) (EpisodeStats, bool, *sim.Device, error) {
	tech, err := preempt.New(kind, j.Workload.Prog)
	if err != nil {
		return EpisodeStats{}, false, nil, fmt.Errorf("%s/%v: %w", j.Workload.Abbrev, kind, err)
	}
	d, err := j.Device(nil)
	if err != nil {
		return EpisodeStats{}, false, nil, err
	}
	t, err := j.Drive(d, tech)
	switch {
	case errors.Is(err, sim.ErrDrained):
		// The SM had no running warps left: an expected race between
		// the signal and kernel completion.
		if m := o.Metrics; m != nil {
			m.Counter("episodes.drained").Add(1)
		}
		return EpisodeStats{}, false, d, nil
	case err != nil:
		return EpisodeStats{}, false, d, fmt.Errorf("%s/%v %w", j.Workload.Abbrev, kind, err)
	case t.Ep == nil:
		return EpisodeStats{}, false, d, nil
	}
	ep := t.Ep
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
			return stats, true, d, fmt.Errorf("%s/%v completion: %w", j.Workload.Abbrev, kind, err)
		}
		if err := j.Workload.Verify(d); err != nil {
			return stats, true, d, fmt.Errorf("%s/%v output corrupted by preemption: %w", j.Workload.Abbrev, kind, err)
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
// Callers that want n samples should log the shortfall (see
// computeCells).
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
