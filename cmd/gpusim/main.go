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
// the output must still verify against the CPU reference.
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
	factory := func() *kernels.Workload {
		wl, err := kernels.ByAbbrev(strings.ToUpper(*kernel), params)
		if err != nil {
			fail(err)
		}
		return wl
	}
	cfg := sim.DefaultConfig()

	// Golden run.
	wl := factory()
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
	if *ckpt && (*tracePath != "" || *tailN > 0) {
		usageErr("-checkpoint discards the original device; -trace and -tail cannot follow it")
	}

	signal := int64(*at * float64(golden.Now()))
	faultCfg := faults.Preset(*faultSeed, *faultRate)

	// Preempted run, possibly under fault injection. A fault detected
	// in-band degrades through the BASELINE fallback ladder.
	runErr := runPreempted(cfg, factory, kind, signal, *faultRate, faultCfg, *tailN, *tracePath, *ckpt)
	if runErr == nil {
		return
	}
	if !sim.FaultDetected(runErr) {
		fail(runErr)
	}
	fmt.Printf("fault detected in-band: %v\n", runErr)
	job := chaos.Job{Cfg: cfg, Workload: factory(), Signal: signal, MaxCycles: 1 << 40}
	rung, err := job.Ladder(faultCfg)
	if err != nil {
		fail(fmt.Errorf("BASELINE fallback: %w", err))
	}
	if rung == chaos.NoRung {
		fail(errors.New("BASELINE fallback: no rung of the ladder completed"))
	}
	fmt.Printf("degraded: BASELINE re-run on rung %d (%v) completed — output verified identical to golden reference\n", rung, rung)
}

// runPreempted runs one preemption episode end to end and verifies the
// final output against the CPU reference. Lost preemption signals are
// re-raised up to chaos.MaxSignalAttempts deliveries; detected faults
// surface as the returned error.
// A non-empty tracePath attaches an event recorder to the device and
// writes the episode timeline as Chrome trace-event JSON after the run.
func runPreempted(cfg sim.Config, factory func() *kernels.Workload, kind preempt.Kind,
	signal int64, faultRate float64, faultCfg faults.Config, tail int,
	tracePath string, checkpoint bool) error {
	wl := factory()
	tech, err := preempt.New(kind, wl.Prog)
	if err != nil {
		return err
	}
	d, err := sim.NewDevice(cfg)
	if err != nil {
		return err
	}
	if faultRate > 0 {
		if err := d.InjectFaults(faultCfg); err != nil {
			return err
		}
	}
	var tr *sim.Tracer
	if tail > 0 {
		tr = d.EnableTrace(tail)
	}
	var rec *trace.Recorder
	if tracePath != "" {
		rec = trace.NewRecorder()
		d.AttachRecorder(rec)
	}
	d.AttachRuntime(tech)
	if _, err := wl.Launch(d); err != nil {
		return err
	}
	if err := d.RunToCycle(signal, 1<<40); err != nil {
		return err
	}
	ep, lost, err := chaos.Raise(d, tech)
	if lost > 0 {
		fmt.Printf("preemption signal lost in delivery %d time(s)\n", lost)
	}
	if err != nil {
		return err
	}
	if err := d.RunUntil(ep.Saved, 1<<40); err != nil {
		return err
	}
	fmt.Printf("preempted SM 0 at cycle %d with %v: %d warps, latency %d cycles (%.2f us), %d context bytes\n",
		signal, kind, len(ep.Victims), ep.PreemptLatencyCycles(),
		cfg.CyclesToMicros(ep.PreemptLatencyCycles()), ep.SavedBytes())
	var validate func() error
	if checkpoint {
		wl2 := factory()
		_, enc := snapshot.Capture(d, 1)
		tech2, err := preempt.New(kind, wl2.Prog)
		if err != nil {
			return err
		}
		res, err := snapshot.Restore(nil, enc, enc, 1, tech2, wl2.Prog)
		if err != nil {
			return err
		}
		if len(res.Index.Episodes) != 1 {
			return fmt.Errorf("restored %d episodes, want 1", len(res.Index.Episodes))
		}
		path := "synchronous"
		if res.Outcome.Speculative {
			path = "speculative"
		}
		fmt.Printf("checkpointed whole device (%d bytes) and restored it onto a cold shell (%s path): setup %d + transfer %d cycles\n",
			len(enc), path, res.Outcome.SetupCycles, res.Outcome.TransferCycles)
		d, ep, wl, validate = res.Device, res.Index.Episodes[0], wl2, res.Validate
	}
	if err := d.Resume(ep); err != nil {
		return err
	}
	if err := d.RunUntil(ep.Finished, 1<<40); err != nil {
		return err
	}
	fmt.Printf("resumed: %d cycles (%.2f us) until all warps regained progress\n",
		ep.ResumeCycles(), cfg.CyclesToMicros(ep.ResumeCycles()))
	if err := d.Run(1 << 40); err != nil {
		return err
	}
	if validate != nil {
		if err := validate(); err != nil {
			return fmt.Errorf("speculative restore failed deferred validation: %w", err)
		}
		fmt.Println("speculative restore validated: deferred memory checksum matches")
	}
	if err := wl.Verify(d); err != nil {
		return fmt.Errorf("preempted run failed verification: %w", err)
	}
	fmt.Println("preempted run completed — output verified identical to golden reference")
	if faultRate > 0 {
		fs := d.FaultStats()
		fmt.Printf("faults injected: %d total (%d transient save, %d transient restore, %d stalls); episode absorbed %d retries\n",
			fs.Total(), fs.TransientSaveFaults, fs.TransientRestoreFaults, fs.Stalls,
			ep.Faults.TransientRetries)
	}
	if tr != nil {
		fmt.Printf("\nlast %d executed instructions:\n%s", tail, tr.Render())
	}
	if rec != nil {
		f, err := os.Create(tracePath)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := trace.WriteChromeTrace(f, rec.Events()); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Printf("wrote %d trace events to %s (open in chrome://tracing)\n", rec.Len(), tracePath)
	}
	return nil
}
