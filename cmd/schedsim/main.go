// Command schedsim replays a seeded multi-tenant arrival trace on the
// deterministic preemptive scheduler (internal/sched) and compares
// preemption techniques on the identical trace.
//
// Usage:
//
//	schedsim [-seed N] [-jobs N] [-tenants N] [-gap CYCLES] [-prio N]
//	         [-sms N] [-iters N] [-kinds all|paper|K1,K2,...]
//	         [-quick] [-procs N] [-verify=false] [-metrics]
//	         [-events] [-cache-dir DIR]
//	schedsim -serve [-duration N] [-rate R] [-process P] [-burst F]
//	         [-diurnal A] [-admit N] [-queue N] [-admit-every N]
//	         [-report-every N] [-hypervisor-every N] [-migrate-threshold N]
//	         [-devices N] [-warm-pool N] [-checkpoint-every N]
//	         [-kill-device ID@CYCLE] [-statehash] [shared flags above]
//
// The trace (who arrives when, with which kernel and priority) is a
// pure function of the flags, and each technique's run is a
// deterministic simulation, so two invocations with the same flags are
// byte-identical regardless of -procs, which runs whole technique
// replays (in -serve mode, the devices' advances between barriers) on
// separate workers.
//
// -events appends each technique's scheduling decision log (arrivals,
// preemptions, parks, resumes, completions with cycle stamps).
//
// -serve switches to SERVE mode: an open-loop arrival process
// (-duration, -rate, -process, -burst, -diurnal) flows through
// per-tenant token-bucket admission control (-admit, -queue) onto
// -devices simulated GPUs behind deterministic load-aware routing, with
// an online hypervisor (-hypervisor-every, -migrate-threshold)
// re-arbitrating per-tenant SM shares from measured demand and
// rebalancing devices through checkpoint/warm-restore migration. The
// report is each technique's per-tenant SLO table plus the serving
// decision log, byte-identical at every -procs setting.
//
// Failover runs in the same barrier loop. -checkpoint-every checkpoints
// every busy device whole (internal/snapshot) on that cadence, and
// -kill-device ID@CYCLE destroys one device mid-run: under a relocatable
// technique its latest checkpoint restores onto a replacement (warm from
// the -warm-pool when one is ready) and the jobs the image does not
// carry re-enter admission; otherwise the replacement starts empty and
// every undelivered job re-enters admission. -statehash appends the
// per-job slab-digest witness, which is byte-identical between a killed
// and an undisturbed run of the same trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ctxback/internal/artifact"
	"ctxback/internal/harness"
	"ctxback/internal/preempt"
	"ctxback/internal/prof"
	"ctxback/internal/sched"
	"ctxback/internal/sim"
	"ctxback/internal/trace"
)

// parseKinds resolves a -kinds value: "all" (every technique including
// the SM-flushing and Chimera extensions), "paper" (the six evaluated
// in the paper), or a comma-separated list of technique names as
// printed in reports (case-insensitive).
func parseKinds(spec string) ([]preempt.Kind, error) {
	switch strings.ToLower(spec) {
	case "", "all":
		return preempt.ExtendedKinds(), nil
	case "paper":
		return preempt.Kinds(), nil
	}
	var kinds []preempt.Kind
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, k := range preempt.ExtendedKinds() {
			if strings.EqualFold(name, k.String()) {
				kinds = append(kinds, k)
				found = true
				break
			}
		}
		if !found {
			var known []string
			for _, k := range preempt.ExtendedKinds() {
				known = append(known, k.String())
			}
			return nil, fmt.Errorf("unknown technique %q (known: %s)", name, strings.Join(known, ", "))
		}
	}
	return kinds, nil
}

// withSpool streams a decision log through a temp-file spool instead of
// accumulating it in memory: run receives the sink to stream into, and
// once it returns the spooled lines are copied to stdout — the same
// bytes the in-memory log would have rendered, in the same place.
func withSpool(run func(*trace.LineSink) error) error {
	f, err := os.CreateTemp("", "schedsim-log-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	sink := trace.NewLineSink(f)
	if err := run(sink); err != nil {
		return err
	}
	if err := sink.Flush(); err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	_, err = io.Copy(os.Stdout, f)
	return err
}

func main() {
	var (
		seed    = flag.Int64("seed", 1, "arrival-trace seed")
		jobs    = flag.Int("jobs", 8, "number of kernel launches in the trace")
		tenants = flag.Int("tenants", 3, "number of tenants sharing the device")
		gap     = flag.Int64("gap", 3_000, "mean inter-arrival gap in cycles")
		prio    = flag.Int("prio", 3, "priorities are drawn from [0, prio]")
		sms     = flag.Int("sms", 1, "number of SMs (1 = maximum contention)")
		iters   = flag.Int("iters", 24, "per-warp loop iterations (kernel length)")
		kindsF  = flag.String("kinds", "all", "techniques: all, paper, or comma-separated names (e.g. BASELINE,CTXBack)")
		quick   = flag.Bool("quick", false, "small unit-test device model (fast, less faithful)")
		procs   = flag.Int("procs", 0, "technique-run workers (with -serve, device workers): 0 = GOMAXPROCS, 1 = serial (identical output either way)")
		verify  = flag.Bool("verify", true, "check every job's output against its CPU golden reference")
		metrics = flag.Bool("metrics", false, "append per-tenant counters and latency histograms")
		events  = flag.Bool("events", false, "append each technique's scheduling decision log")
		cache   = flag.String("cache-dir", "", "persistent content-addressed artifact cache shared across runs and processes (empty = in memory only)")

		serve       = flag.Bool("serve", false, "serve mode: open-loop traffic through admission control onto a load-balanced fleet with an online hypervisor")
		duration    = flag.Int64("duration", 0, "serve mode: generate arrivals for N cycles (0 = use -jobs as a fixed count)")
		rate        = flag.Float64("rate", 0, "serve mode: mean arrivals per 100k cycles (0 = derive from -gap)")
		process     = flag.String("process", "poisson", "serve mode: inter-arrival process, uniform or poisson")
		burst       = flag.Float64("burst", 0, "serve mode: fraction of tenants that arrive in bursts [0,1]")
		diurnal     = flag.Float64("diurnal", 0, "serve mode: sinusoidal arrival-rate modulation amplitude [0,1)")
		admitRate   = flag.Int("admit", 0, "serve mode: per-tenant admission budget in jobs per 100k cycles (0 = no admission control)")
		queue       = flag.Int("queue", 0, "serve mode: per-tenant defer-queue bound before shedding (0 = default 32)")
		admitEvery  = flag.Int64("admit-every", 0, "serve mode: admission/routing barrier cadence in cycles (0 = default 2000)")
		reportEvery = flag.Int64("report-every", 0, "serve mode: decision-log window-aggregate cadence in cycles (0 = hypervisor cadence, else 16x admit-every)")
		hyperEvery  = flag.Int64("hypervisor-every", 0, "serve mode: SM-share re-arbitration cadence in cycles (0 = hypervisor off)")
		migThresh   = flag.Int("migrate-threshold", 0, "serve mode: outstanding-job imbalance that triggers a migration (0 = default 8, negative = off)")

		devices   = flag.Int("devices", 0, "serve mode: initial device count (0 = default 2)")
		ckptEvery = flag.Int64("checkpoint-every", 0, "serve mode: whole-device checkpoint cadence in cycles (0 = no checkpoints)")
		killSpec  = flag.String("kill-device", "", "serve mode: destroy device ID at CYCLE, as ID@CYCLE (e.g. 0@80000)")
		warmPool  = flag.Int("warm-pool", 0, "serve mode: pre-built device shells kept warm for restores")
		statehash = flag.Bool("statehash", false, "serve mode: append the per-job slab-digest state witness")
	)
	profiles := prof.Register(flag.CommandLine)
	flag.Parse()

	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "schedsim: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "schedsim:", err)
		profiles.Stop()
		os.Exit(1)
	}
	if (*jobs <= 0 && !(*serve && *duration > 0)) || *tenants <= 0 || *gap <= 0 || *prio < 0 || *sms <= 0 || *iters <= 0 {
		usageErr("-jobs, -tenants, -gap, -sms and -iters must be positive; -prio must be >= 0")
	}
	if *duration < 0 || *rate < 0 || *admitRate < 0 || *queue < 0 || *admitEvery < 0 || *hyperEvery < 0 || *reportEvery < 0 {
		usageErr("-duration, -rate, -admit, -queue, -admit-every, -report-every and -hypervisor-every must be >= 0")
	}
	if *burst < 0 || *burst > 1 {
		usageErr("-burst must be in [0,1], got %g", *burst)
	}
	if *diurnal < 0 || *diurnal >= 1 {
		usageErr("-diurnal must be in [0,1), got %g", *diurnal)
	}
	if *process != "uniform" && *process != "poisson" {
		usageErr("-process must be uniform or poisson, got %q", *process)
	}
	if !*serve && (*devices != 0 || *ckptEvery != 0 || *killSpec != "" || *warmPool != 0 || *statehash) {
		usageErr("-devices, -checkpoint-every, -kill-device, -warm-pool and -statehash need -serve")
	}
	if *procs < 0 {
		usageErr("-procs must be >= 0, got %d", *procs)
	}
	if *devices < 0 {
		usageErr("-devices must be >= 0, got %d", *devices)
	}
	if *ckptEvery < 0 {
		usageErr("-checkpoint-every must be >= 0, got %d", *ckptEvery)
	}
	if *warmPool < 0 {
		usageErr("-warm-pool must be >= 0, got %d", *warmPool)
	}
	var kill *sched.DeviceKill
	if *killSpec != "" {
		// Range and sign are ServeConfig's to check; only the syntax is
		// the flag's.
		idS, cycS, ok := strings.Cut(*killSpec, "@")
		id, err1 := strconv.Atoi(idS)
		cyc, err2 := strconv.ParseInt(cycS, 10, 64)
		if !ok || err1 != nil || err2 != nil {
			usageErr("-kill-device wants ID@CYCLE, got %q", *killSpec)
		}
		kill = &sched.DeviceKill{Device: id, Cycle: cyc}
	}
	kinds, err := parseKinds(*kindsF)
	if err != nil {
		usageErr("%v", err)
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

	tc := sched.TraceConfig{
		Seed:          *seed,
		NumJobs:       *jobs,
		NumTenants:    *tenants,
		MaxPriority:   *prio,
		MeanGapCycles: *gap,
	}
	sc := sched.DefaultSchedConfig()
	if *quick {
		sc.Dev = sim.TestConfig()
		sc.Dev.GlobalMemBytes = 64 << 20
		sc.MaxCycles = 200_000_000
	}
	sc.Dev.NumSMs = *sms
	sc.Params.ItersPerWarp = *iters
	sc.Verify = *verify
	if *metrics {
		sc.Metrics = trace.NewRegistry()
	}

	if *serve {
		tc.Process = *process
		tc.DurationCycles = *duration
		tc.BurstFraction = *burst
		tc.DiurnalAmplitude = *diurnal
		if *duration > 0 {
			tc.NumJobs = 0 // open loop: the duration bounds the trace
		}
		if *rate > 0 {
			g := int64(100_000 / *rate)
			if g < 1 {
				g = 1
			}
			tc.MeanGapCycles = g
		}
		jobsList, err := sched.GenTrace(tc)
		if err != nil {
			fail(err)
		}
		svc := sched.ServeConfig{
			Sched:       sc,
			Devices:     *devices,
			Workers:     *procs,
			AdmitEvery:  *admitEvery,
			ReportEvery: *reportEvery,
			WarmPool:    *warmPool,
			Admit:       sched.AdmitConfig{TokensPer100k: *admitRate, MaxQueue: *queue},
			Hypervisor:  sched.HypervisorConfig{Every: *hyperEvery, MigrateThreshold: *migThresh},

			CheckpointEvery: *ckptEvery,
			Kill:            kill,
			StateHash:       *statehash,
		}
		for i, k := range kinds {
			if i > 0 {
				fmt.Println()
			}
			// The decision log streams through a temp-file spool while the
			// run is live and replays after the tables, where EventLog used
			// to render the accumulated events; the witness follows it.
			var res *sched.ServeResult
			if err := withSpool(func(sink *trace.LineSink) error {
				svc.DecisionSink = sink
				var err error
				if res, err = sched.Serve(svc, k, jobsList); err != nil {
					return err
				}
				fmt.Print(res.Render())
				fmt.Printf("%s decision log:\n", res.Kind)
				return nil
			}); err != nil {
				fail(err)
			}
			fmt.Print(res.StateHash)
		}
		if *metrics {
			fmt.Println()
			fmt.Println(sc.Metrics.Render())
		}
		return
	}

	o := harness.QuickOptions()
	o.Parallelism = *procs
	r := harness.NewRunner(o)
	cmp, err := r.Schedule(tc, sc, kinds)
	if err != nil {
		fail(err)
	}
	fmt.Println(harness.RenderSchedule(cmp))
	if *events {
		for _, res := range cmp.Results {
			fmt.Printf("\n%s decision log:\n%s", res.Kind, res.EventLog())
		}
	}
	if *metrics {
		fmt.Println()
		fmt.Println(sc.Metrics.Render())
	}
}
