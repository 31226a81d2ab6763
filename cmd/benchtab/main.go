// Command benchtab regenerates the paper's evaluation artifacts on the
// simulator: Table I and Figures 7-10, the headline summary, and the
// ablation of CTXBack's three techniques.
//
// Usage:
//
//	benchtab [-quick] [-samples N] [-procs N] [-table1]
//	         [-fig7] [-fig8] [-fig9] [-fig10] [-ablation] [-summary]
//	         [-all] [-metrics]
//	benchtab -sched [-quick] [-procs N]
//	benchtab -chaos [-faults RATE] [-fault-seed N]
//
// -procs spreads independent preemption episodes across a worker pool
// (0, the default, is one worker per GOMAXPROCS); each simulated device
// runs serially. Reported numbers are byte-identical at every -procs.
//
// -sched replays one seeded multi-tenant arrival trace under every
// technique on the preemptive scheduler (internal/sched) and prints the
// cross-technique turnaround comparison. cmd/schedsim exposes the trace
// knobs; here the canonical contended trace is fixed so runs are
// comparable. -sched output is additive and does not alter -all.
//
// -metrics appends the observability report after the requested
// experiments: the episode counters/latency histograms accumulated
// while measuring, plus the per-(kernel, technique) phase breakdown
// (drain/save/restore/replay). The breakdown reuses the memoized
// episode matrix, so with -all it costs no extra simulation.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"ctxback/internal/artifact"
	"ctxback/internal/harness"
	"ctxback/internal/preempt"
	"ctxback/internal/prof"
	"ctxback/internal/sched"
	"ctxback/internal/sim"
	"ctxback/internal/trace"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "small configuration (fast, less faithful)")
		samples    = flag.Int("samples", 0, "preemption sample points per kernel x technique")
		table1     = flag.Bool("table1", false, "regenerate Table I")
		fig7       = flag.Bool("fig7", false, "regenerate Fig 7 (context size)")
		fig8       = flag.Bool("fig8", false, "regenerate Fig 8 (preemption time)")
		fig9       = flag.Bool("fig9", false, "regenerate Fig 9 (resume time)")
		fig10      = flag.Bool("fig10", false, "regenerate Fig 10 (runtime overhead)")
		ablation   = flag.Bool("ablation", false, "CTXBack technique ablation")
		summary    = flag.Bool("summary", false, "headline numbers (implies figs 7-10)")
		qos        = flag.String("qos", "", "waiting-time distribution for one benchmark (e.g. -qos KM)")
		contention = flag.String("contention", "", "BASELINE switch time vs busy SMs for one benchmark (e.g. -contention KM)")
		all        = flag.Bool("all", false, "everything (fault-free evaluation; chaos stays opt-in)")
		procs      = flag.Int("procs", 0, "episode workers: 0 = GOMAXPROCS, 1 = serial (identical numbers either way)")
		metrics    = flag.Bool("metrics", false, "append episode counters, latency histograms and the phase breakdown")
		schedCmp   = flag.Bool("sched", false, "multi-tenant preemptive-schedule comparison across every technique")
		chaos      = flag.Bool("chaos", false, "fault-injection robustness sweep across kernels x techniques")
		faultRate  = flag.Float64("faults", 0, "chaos fault rate in [0,1] (0 = sweep the default rates)")
		faultSeed  = flag.Uint64("fault-seed", 0, "chaos fault seed (0 = default)")
		cache      = flag.String("cache-dir", "", "persistent content-addressed artifact cache shared across runs and processes (empty = in memory only)")
	)
	profiles := prof.Register(flag.CommandLine)
	flag.Parse()

	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchtab: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if *procs < 0 {
		usageErr("-procs must be >= 0, got %d", *procs)
	}
	if math.IsNaN(*faultRate) || *faultRate < 0 || *faultRate > 1 {
		usageErr("-faults must be a rate in [0,1], got %v", *faultRate)
	}

	opts := harness.DefaultOptions()
	if *quick {
		opts = harness.QuickOptions()
	}
	if *samples > 0 {
		opts.Samples = *samples
	}
	opts.Parallelism = *procs
	if *metrics {
		opts.Metrics = trace.NewRegistry()
	}
	if !(*table1 || *fig7 || *fig8 || *fig9 || *fig10 || *ablation || *summary || *qos != "" || *contention != "" || *chaos || *schedCmp) {
		*all = true
	}
	if *all {
		*table1, *fig7, *fig8, *fig9, *fig10, *ablation, *summary = true, true, true, true, true, true, true
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		profiles.Stop()
		os.Exit(1)
	}
	if err := profiles.Start(); err != nil {
		fail(err)
	}
	defer func() {
		if err := profiles.Stop(); err != nil {
			fail(err)
		}
	}()
	if *cache != "" {
		st, err := artifact.Open(*cache)
		if err != nil {
			fail(err)
		}
		artifact.SetDefault(st)
	}

	// One Runner for every requested experiment: each kernel's golden
	// run is simulated once and shared by Table I and Figs 8-10.
	r := harness.NewRunner(opts)

	if *table1 {
		rows, err := r.TableI()
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.RenderTableI(rows))
	}

	var f7, f8, f9, f10 *harness.Figure
	var err error
	if *fig7 || *summary {
		if f7, err = r.Fig7(); err != nil {
			fail(err)
		}
		if *fig7 {
			fmt.Println(harness.RenderFigure(f7))
		}
	}
	if *fig8 || *fig9 || *summary {
		if f8, f9, err = r.MeasureDynamic(); err != nil {
			fail(err)
		}
		if *fig8 {
			fmt.Println(harness.RenderFigure(f8))
		}
		if *fig9 {
			fmt.Println(harness.RenderFigure(f9))
		}
	}
	if *fig10 || *summary {
		if f10, err = r.Fig10(); err != nil {
			fail(err)
		}
		if *fig10 {
			fmt.Println(harness.RenderFigure(f10))
		}
	}
	if *ablation {
		rows, err := r.Ablation()
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.RenderAblation(rows))
	}
	if *summary {
		fmt.Println(harness.RenderSummary(harness.Summarize(f7, f8, f9, f10)))
	}
	if *qos != "" {
		res, err := r.WaitDistribution(*qos, max(opts.Samples*3, 9))
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.RenderQoS(res))
	}
	if *contention != "" {
		rows, err := harness.ContentionSweep(opts, *contention)
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.RenderContention(*contention, rows))
	}
	if *schedCmp {
		// The canonical contended trace: one SM so every arrival fights
		// for it, arrivals dense enough to force preemptions. On the full
		// device the slow context path keeps SM-flushing competitive for
		// these early preemptions (the Chimera trade-off); the quick
		// device shows CTXBack ahead of both BASELINE and SM-flushing.
		tc := sched.TraceConfig{Seed: 9, NumJobs: 8, NumTenants: 3, MeanGapCycles: 3_000}
		sc := sched.DefaultSchedConfig()
		sc.Dev.NumSMs = 1
		// Long enough that a flush-and-restart forfeits real progress.
		sc.Params.ItersPerWarp = 24
		sc.Metrics = opts.Metrics
		if *quick {
			sc.Dev = sim.TestConfig()
			sc.Dev.NumSMs = 1
			sc.Dev.GlobalMemBytes = 64 << 20
			sc.MaxCycles = 200_000_000
		}
		cmp, err := r.Schedule(tc, sc, preempt.ExtendedKinds())
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.RenderSchedule(cmp))
	}
	if *metrics {
		rows, err := r.PhaseBreakdown(preempt.Kinds())
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.RenderPhases(preempt.Kinds(), rows))
		fmt.Println(opts.Metrics.Render())
	}
	if *chaos {
		co := harness.DefaultChaosOptions()
		if *faultRate > 0 {
			co.Rates = []float64{*faultRate}
		}
		if *faultSeed != 0 {
			co.Seed = *faultSeed
		}
		rep, err := r.Chaos(co)
		if err != nil {
			fail(err)
		}
		fmt.Println(harness.RenderChaos(rep))
		if rep.SilentWrong() > 0 || rep.Unrecoverable() > 0 {
			fail(fmt.Errorf("chaos: %d silent-wrong, %d unrecoverable episodes",
				rep.SilentWrong(), rep.Unrecoverable()))
		}
	}
}
