// Command genrun drives the seeded SIMT program generator through the
// differential sweep: every seed's kernel runs uninterrupted and under
// forced mid-flight preemption by each technique, and the final device
// memory is byte-compared against the host-side golden interpreter.
// Sampled oracles ride along: scan-vs-readyqueue lockstep, resume
// integrity, snapshot round-trip, and a fault-injection chaos episode.
//
// Usage:
//
//	genrun [-start N] [-n N] [-procs N] [-kinds A,B,...] [-fracs F,F]
//	       [-scan-every N] [-integrity-every N] [-snapshot-every N]
//	       [-chaos-every N] [-chaos-rate R]
//	genrun -dump SEED
//
// The sweep is a deterministic function of (-start, -n) and the oracle
// options: the report is byte-identical at every -procs setting (0, the
// default, is one worker per GOMAXPROCS). A failing seed regenerates
// its exact kernel with -dump for triage. Exit status is nonzero if any
// seed fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"ctxback/internal/artifact"
	"ctxback/internal/gen"
	"ctxback/internal/gen/sweep"
	"ctxback/internal/preempt"
	"ctxback/internal/prof"
)

func main() {
	var (
		start          = flag.Uint64("start", 0, "first seed")
		n              = flag.Uint64("n", 1000, "number of seeds")
		procs          = flag.Int("procs", 0, "sweep workers: 0 = GOMAXPROCS, 1 = serial; identical report either way")
		kindsFlag      = flag.String("kinds", "", "comma-separated technique names (default: all 8)")
		fracsFlag      = flag.String("fracs", "", "comma-separated signal fractions in (0,1) (default: 0.3,0.7)")
		scanEvery      = flag.Int("scan-every", 4, "run the reference-scheduler lockstep oracle every Nth seed (0 = off)")
		integrityEvery = flag.Int("integrity-every", 2, "attach the resume-integrity oracle every Nth seed (0 = off)")
		snapshotEvery  = flag.Int("snapshot-every", 8, "run the snapshot round-trip oracle every Nth seed (0 = off)")
		chaosEvery     = flag.Int("chaos-every", 4, "run the fault-injection chaos oracle every Nth seed (0 = off)")
		chaosRate      = flag.Float64("chaos-rate", 0.2, "chaos fault rate in (0,1]")
		dump           = flag.Int64("dump", -1, "disassemble one seed's kernel and exit")
		maxFail        = flag.Int("max-failures", 20, "failure lines printed before truncating")
		cache          = flag.String("cache-dir", "", "persistent content-addressed artifact cache shared across runs and processes (empty = in memory only)")
	)
	profiles := prof.Register(flag.CommandLine)
	flag.Parse()

	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "genrun: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		usageErr("unexpected arguments: %v", flag.Args())
	}
	if *dump >= 0 {
		p := gen.Generate(uint64(*dump))
		fmt.Printf("; seed %d: %d blocks x %d warps, %d top-level trips, idempotent=%v\n",
			p.Seed, p.NumBlocks, p.WarpsPerBlock, p.TopTrips, p.Idempotent)
		fmt.Print(p.Prog.Disassemble())
		return
	}
	if *n == 0 {
		usageErr("-n must be >= 1")
	}
	if *procs < 0 {
		usageErr("-procs must be >= 0, got %d", *procs)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"-scan-every", *scanEvery}, {"-integrity-every", *integrityEvery},
		{"-snapshot-every", *snapshotEvery}, {"-chaos-every", *chaosEvery},
	} {
		if f.v < 0 {
			usageErr("%s must be >= 0, got %d", f.name, f.v)
		}
	}
	if *chaosRate <= 0 || *chaosRate > 1 {
		usageErr("-chaos-rate must be in (0,1], got %g", *chaosRate)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "genrun:", err)
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

	opt := sweep.DefaultOptions()
	opt.ScanEvery = *scanEvery
	opt.IntegrityEvery, opt.SnapshotEvery = *integrityEvery, *snapshotEvery
	opt.ChaosEvery, opt.ChaosRate = *chaosEvery, *chaosRate
	if *kindsFlag != "" {
		kinds, err := parseKinds(*kindsFlag)
		if err != nil {
			usageErr("%v", err)
		}
		opt.Kinds = kinds
	}
	if *fracsFlag != "" {
		fracs, err := parseFracs(*fracsFlag)
		if err != nil {
			usageErr("%v", err)
		}
		opt.SignalFracs = fracs
	}

	rep, err := sweep.Run(*start, *n, *procs, opt)
	if err != nil {
		fail(err)
	}
	fmt.Print(rep.Summary())
	if len(rep.Failures) > 0 {
		for i, f := range rep.Failures {
			if i >= *maxFail {
				fmt.Fprintf(os.Stderr, "... %d more failures\n", len(rep.Failures)-i)
				break
			}
			fmt.Fprintln(os.Stderr, f.String())
		}
		fail(fmt.Errorf("%d of %d seeds failed (regenerate one with -dump SEED)",
			rep.Seeds-rep.Passed, rep.Seeds))
	}
}

// parseKinds resolves comma-separated technique names against the
// extended technique set, case-insensitively.
func parseKinds(s string) ([]preempt.Kind, error) {
	byName := make(map[string]preempt.Kind)
	var known []string
	for _, k := range preempt.ExtendedKinds() {
		byName[strings.ToLower(k.String())] = k
		known = append(known, k.String())
	}
	sort.Strings(known)
	var kinds []preempt.Kind
	for _, part := range strings.Split(s, ",") {
		k, ok := byName[strings.ToLower(strings.TrimSpace(part))]
		if !ok {
			return nil, fmt.Errorf("unknown technique %q (known: %s)", part, strings.Join(known, ", "))
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

func parseFracs(s string) ([]float64, error) {
	var fracs []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad signal fraction %q: %v", part, err)
		}
		if f <= 0 || f >= 1 {
			return nil, fmt.Errorf("signal fraction %g outside (0,1)", f)
		}
		fracs = append(fracs, f)
	}
	return fracs, nil
}
