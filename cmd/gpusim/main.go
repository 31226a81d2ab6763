// Command gpusim runs a Table-I benchmark on the GPU simulator, with an
// optional mid-run preemption under a chosen technique, and verifies the
// output against the CPU golden reference.
//
// Usage:
//
//	gpusim -kernel KM                         # plain run
//	gpusim -kernel KM -technique CTXBack -at 0.5
//	gpusim -kernel KM -technique CTXBack -trace km.trace.json
//	gpusim -kernel KM -technique CTXBack -faults 0.05 -fault-seed 1
//	gpusim -kernel KM -technique CTXBack -checkpoint
//
// With -checkpoint the parked episode is checkpointed with the WHOLE
// device (internal/snapshot), the original device is discarded, and the
// run finishes on a device restored from the snapshot bytes via the
// speculative path — the deferred validation settles after replay, and
// the output must still verify against the CPU reference. The restored
// device carries no tracer, recorder or injector, so -trace, -tail and
// -faults are usage errors beside -checkpoint.
//
// With -trace FILE the preempted run records structured episode, warp
// and memory-pipeline events and writes them as Chrome trace-event JSON:
// open the file in chrome://tracing or https://ui.perfetto.dev to see
// the preemption timeline (one process per SM, one thread per warp,
// timestamps in simulated cycles).
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"ctxback/internal/artifact"
	"ctxback/internal/chaos"
	"ctxback/internal/faults"
	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/prof"
	"ctxback/internal/sim"
	"ctxback/internal/snapshot"
	"ctxback/internal/trace"
)

func main() {
	var (
		kernel    = flag.String("kernel", "VA", "benchmark abbreviation")
		techStr   = flag.String("technique", "", "preemption technique (BASELINE, LIVE, CKPT, CS-Defer, CTXBack, CTXBack+CS-Defer)")
		at        = flag.Float64("at", 0.5, "preemption point as a fraction of the uninterrupted runtime")
		blocks    = flag.Int("blocks", 8, "thread blocks")
		warps     = flag.Int("warps", 2, "warps per block")
		iters     = flag.Int("iters", 16, "main-loop iterations per warp")
		tracePath = flag.String("trace", "", "write the preempted run's episode timeline as Chrome trace-event JSON to this file (chrome://tracing)")
		tailN     = flag.Int("tail", 0, "print the last N executed instructions of the preempted run")
		faultRate = flag.Float64("faults", 0, "fault-injection rate in [0,1] for the preempted run (0 = off)")
		faultSeed = flag.Uint64("fault-seed", 1, "fault-injection seed")
		ckpt      = flag.Bool("checkpoint", false, "checkpoint the whole device at the parked episode and finish the run on a device restored from the snapshot bytes")
		cache     = flag.String("cache-dir", "", "persistent content-addressed artifact cache shared across runs and processes (empty = in memory only)")
	)
	profiles := prof.Register(flag.CommandLine)
	flag.Parse()

	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "gpusim: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if math.IsNaN(*faultRate) || *faultRate < 0 || *faultRate > 1 {
		usageErr("-faults must be a rate in [0,1], got %v", *faultRate)
	}
	if math.IsNaN(*at) || *at < 0 || *at >= 1 {
		usageErr("-at must be a fraction in [0,1), got %v", *at)
	}
	if *ckpt && (*tracePath != "" || *tailN > 0) {
		usageErr("-checkpoint discards the original device; -trace and -tail cannot follow it")
	}
	if *ckpt && *faultRate > 0 {
		usageErr("-checkpoint finishes on a restored device without an injector; -faults cannot follow it")
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "gpusim:", err)
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

	params := kernels.Params{NumBlocks: *blocks, WarpsPerBlock: *warps, ItersPerWarp: *iters, Seed: 7}
	wl, err := kernels.ByAbbrev(strings.ToUpper(*kernel), params)
	if err != nil {
		fail(err)
	}
	cfg := sim.DefaultConfig()

	// Golden run.
	golden, err := sim.NewDevice(cfg)
	if err != nil {
		fail(err)
	}
	if _, err := wl.Launch(golden); err != nil {
		fail(err)
	}
	if err := golden.Run(1 << 40); err != nil {
		fail(err)
	}
	if err := wl.Verify(golden); err != nil {
		fail(fmt.Errorf("golden run failed verification: %w", err))
	}
	fmt.Printf("%s: %d warps, %d instructions, %d cycles (%.1f us) — output verified\n",
		wl.FullName, wl.TotalWarps(), golden.Stats.KernelInstrs, golden.Now(), golden.Micros())

	if *techStr == "" {
		return
	}
	var kind preempt.Kind
	found := false
	for _, k := range preempt.Kinds() {
		if strings.EqualFold(k.String(), *techStr) {
			kind, found = k, true
		}
	}
	if !found {
		fail(fmt.Errorf("unknown technique %q", *techStr))
	}
	if *ckpt && !preempt.Relocatable(kind) {
		fail(fmt.Errorf("%v episodes do not survive a snapshot trip (technique state is device-resident); pick a relocatable technique", kind))
	}

	signal := int64(*at * float64(golden.Now()))
	faultCfg := faults.Preset(*faultSeed, *faultRate)
	var fc *faults.Config
	if *faultRate > 0 {
		fc = &faultCfg
	}

	// Preempted run, possibly under fault injection, through the episode
	// driver (chaos.Job). Lost signals are re-raised up to
	// chaos.MaxSignalAttempts deliveries; a fault detected in-band
	// degrades through the BASELINE fallback ladder.
	job := chaos.Job{Cfg: cfg, Workload: wl, Signal: signal, MaxCycles: 1 << 40}
	tech, err := preempt.New(kind, wl.Prog)
	if err != nil {
		fail(err)
	}
	d, err := job.Device(fc)
	if err != nil {
		fail(err)
	}
	var tr *sim.Tracer
	if *tailN > 0 {
		tr = d.EnableTrace(*tailN)
	}
	var rec *trace.Recorder
	if *tracePath != "" {
		rec = trace.NewRecorder()
		d.AttachRecorder(rec)
	}
	showLost := func(n int) {
		if n > 0 {
			fmt.Printf("preemption signal lost in delivery %d time(s)\n", n)
		}
	}
	var (
		rd *sim.Device  // the device the episode resumed on
		ep *sim.Episode // the episode as it resumed
	)
	job.Park = func(pd *sim.Device, pep *sim.Episode) (*sim.Device, *sim.Episode, func() error, error) {
		showLost(pd.FaultStats().DroppedSignals) // each delivery Raise lost
		fmt.Printf("preempted SM 0 at cycle %d with %v: %d warps, latency %d cycles (%.2f us), %d context bytes\n",
			signal, kind, len(pep.Victims), pep.PreemptLatencyCycles(),
			cfg.CyclesToMicros(pep.PreemptLatencyCycles()), pep.SavedBytes())
		if rd, ep = pd, pep; !*ckpt {
			return pd, pep, nil, nil
		}
		_, enc := snapshot.Capture(pd, 1)
		tech2, err := preempt.New(kind, wl.Prog)
		if err != nil {
			return nil, nil, nil, err
		}
		res, err := snapshot.Restore(nil, enc, enc, 1, tech2, wl.Prog)
		if err != nil {
			return nil, nil, nil, err
		}
		if len(res.Index.Episodes) != 1 {
			return nil, nil, nil, fmt.Errorf("restored %d episodes, want 1", len(res.Index.Episodes))
		}
		path := "synchronous"
		if res.Outcome.Speculative {
			path = "speculative"
		}
		fmt.Printf("checkpointed whole device (%d bytes) and restored it onto a cold shell (%s path): setup %d + transfer %d cycles\n",
			len(enc), path, res.Outcome.SetupCycles, res.Outcome.TransferCycles)
		rd, ep = res.Device, res.Index.Episodes[0]
		return rd, ep, res.Validate, nil
	}
	run, err := job.EpisodeOn(d, tech)
	if ep == nil { // the episode never parked
		showLost(run.ReRaised)
	} else if ep.Finished() {
		fmt.Printf("resumed: %d cycles (%.2f us) until all warps regained progress\n",
			ep.ResumeCycles(), cfg.CyclesToMicros(ep.ResumeCycles()))
	}
	switch {
	case err != nil:
		fail(err)
	case run.Detected != nil:
		fmt.Printf("fault detected in-band: %v\n", run.Detected)
		rung, err := job.Ladder(faultCfg)
		if err != nil {
			fail(fmt.Errorf("BASELINE fallback: %w", err))
		}
		if rung == chaos.NoRung {
			fail(errors.New("BASELINE fallback: no rung of the ladder completed"))
		}
		fmt.Printf("degraded: BASELINE re-run on rung %d (%v) completed — output verified identical to golden reference\n", rung, rung)
		return
	case run.VerifyErr != nil:
		fail(fmt.Errorf("preempted run failed verification: %w", run.VerifyErr))
	case run.Skipped:
		fail(fmt.Errorf("sim: SM 0: %w", sim.ErrDrained))
	}
	if *ckpt {
		fmt.Println("speculative restore validated: deferred memory checksum matches")
	}
	fmt.Println("preempted run completed — output verified identical to golden reference")
	if fc != nil {
		fs := rd.FaultStats()
		fmt.Printf("faults injected: %d total (%d transient save, %d transient restore, %d stalls); episode absorbed %d retries\n",
			fs.Total(), fs.TransientSaveFaults, fs.TransientRestoreFaults, fs.Stalls, run.Retries)
	}
	if tr != nil {
		fmt.Printf("\nlast %d executed instructions:\n%s", *tailN, tr.Render())
	}
	if rec != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(fmt.Errorf("trace: %w", err))
		}
		if err := trace.WriteChromeTrace(f, rec.Events()); err != nil {
			f.Close()
			fail(fmt.Errorf("trace: %w", err))
		}
		if err := f.Close(); err != nil {
			fail(fmt.Errorf("trace: %w", err))
		}
		fmt.Printf("wrote %d trace events to %s (open in chrome://tracing)\n", rec.Len(), *tracePath)
	}
}
