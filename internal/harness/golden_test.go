package harness

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"ctxback/internal/preempt"
	"ctxback/internal/sched"
	"ctxback/internal/sim"
	"ctxback/internal/trace"
)

// diffGolden fails t unless got equals testdata/<name> at the
// repository root byte for byte, naming the first line that differs.
func diffGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile("../../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(g), len(w)) {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s: line %d is\n\t%q\nwant\n\t%q", name, i+1, gl, wl)
		}
	}
}

// TestQuickSweepGolden renders the quick sweep in-process, block by
// block as `benchtab -quick` prints it, and diffs it against
// testdata/quick_sweep.golden. Table I and Figs 8-10 are simulated
// episodes, so any change to a kernel's simulated timing shows here.
func TestQuickSweepGolden(t *testing.T) {
	r := NewRunner(QuickOptions())
	var b strings.Builder
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	rows, err := r.TableI()
	must(err)
	fmt.Fprintln(&b, RenderTableI(rows))
	f7, err := r.Fig7()
	must(err)
	fmt.Fprintln(&b, RenderFigure(f7))
	f8, f9, err := r.MeasureDynamic()
	must(err)
	fmt.Fprintln(&b, RenderFigure(f8))
	fmt.Fprintln(&b, RenderFigure(f9))
	f10, err := r.Fig10()
	must(err)
	fmt.Fprintln(&b, RenderFigure(f10))
	abl, err := r.Ablation()
	must(err)
	fmt.Fprintln(&b, RenderAblation(abl))
	fmt.Fprintln(&b, RenderSummary(Summarize(f7, f8, f9, f10)))
	diffGolden(t, "quick_sweep.golden", b.String())
}

// TestChaosSmokeGolden renders the quick fault-injection sweep at rate
// 0.2, as `benchtab -quick -chaos -faults 0.2` prints it, and diffs it
// against testdata/chaos_smoke.golden.
func TestChaosSmokeGolden(t *testing.T) {
	co := DefaultChaosOptions()
	co.Rates = []float64{0.2}
	rep, err := NewRunner(QuickOptions()).Chaos(co)
	if err != nil {
		t.Fatal(err)
	}
	diffGolden(t, "chaos_smoke.golden", RenderChaos(rep)+"\n")
}

// schedCLIQuick is `schedsim -quick`'s scheduler configuration at the
// CLI's default -sms, -iters and -verify.
func schedCLIQuick() sched.Config {
	sc := sched.DefaultSchedConfig()
	sc.Dev = sim.TestConfig()
	sc.Dev.GlobalMemBytes = 64 << 20
	sc.MaxCycles = 200_000_000
	sc.Dev.NumSMs = 1
	sc.Params.ItersPerWarp = 24
	sc.Verify = true
	return sc
}

// schedTrace is schedsim's arrival trace at -seed 9 and the default
// -jobs, -tenants, -prio and -gap.
var schedTrace = sched.TraceConfig{Seed: 9, NumJobs: 8, NumTenants: 3, MaxPriority: 3, MeanGapCycles: 3000}

// TestSchedSmokeGolden renders `schedsim -quick -seed 9` in-process
// through Schedule and diffs it against testdata/sched_smoke.golden:
// every technique preempting on the scheduler, down to the per-job
// tables.
func TestSchedSmokeGolden(t *testing.T) {
	cmp, err := NewRunner(QuickOptions()).Schedule(schedTrace, schedCLIQuick(), preempt.ExtendedKinds())
	if err != nil {
		t.Fatal(err)
	}
	diffGolden(t, "sched_smoke.golden", RenderSchedule(cmp)+"\n")
}

// TestSchedFailoverGolden renders the failover run of `make sched-smoke`
// in-process through sched.Serve and diffs it against
// testdata/sched_failover.golden: two devices with whole-device
// checkpoints every 40000 cycles, device 0 killed at cycle 80000 (a
// warm restore under CTXBack, an empty replacement and requeue under
// CKPT), down to the decision log and the slab-digest witness.
func TestSchedFailoverGolden(t *testing.T) {
	tc := schedTrace
	tc.Process = "uniform"
	jobs, err := sched.GenTrace(tc)
	if err != nil {
		t.Fatal(err)
	}
	svc := sched.ServeConfig{Sched: schedCLIQuick(), Devices: 2, CheckpointEvery: 40_000,
		Kill: &sched.DeviceKill{Device: 0, Cycle: 80_000}, WarmPool: 1, StateHash: true}
	var b strings.Builder
	for i, k := range []preempt.Kind{preempt.CTXBack, preempt.Ckpt} {
		if i > 0 {
			b.WriteString("\n")
		}
		var log strings.Builder
		svc.DecisionSink = trace.NewLineSink(&log)
		res, err := sched.Serve(svc, k, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.DecisionSink.Flush(); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s%s decision log:\n%s%s", res.Render(), res.Kind, log.String(), res.StateHash)
	}
	diffGolden(t, "sched_failover.golden", b.String())
}
