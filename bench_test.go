package ctxback

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§V). Each benchmark measures the corresponding experiment
// on the simulator and reports the reproduced quantity via
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates every row
// the paper reports. cmd/benchtab prints the same data as full tables.

import (
	"fmt"
	"testing"

	"ctxback/internal/core"
	"ctxback/internal/harness"
	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
)

func benchOptions() harness.Options {
	o := harness.QuickOptions()
	o.Samples = 1
	return o
}

// BenchmarkTableI measures the BASELINE context-switch times per
// benchmark (Table I): preempt_us and resume_us metrics per kernel.
func BenchmarkTableI(b *testing.B) {
	o := benchOptions()
	for b.Loop() {
		rows, err := harness.NewRunner(o).TableI()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.PreemptUs, r.Abbrev+"_preempt_us")
		}
	}
}

// BenchmarkFig7ContextSize reports each technique's mean normalized
// context size (Fig 7).
func BenchmarkFig7ContextSize(b *testing.B) {
	o := benchOptions()
	for b.Loop() {
		fig, err := harness.NewRunner(o).Fig7()
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.SeriesBy {
			b.ReportMetric(s.Mean, metricName(s.Kind)+"_xBase")
		}
	}
}

// BenchmarkFig8PreemptTime reports each technique's mean normalized
// preemption time (Fig 8).
func BenchmarkFig8PreemptTime(b *testing.B) {
	o := benchOptions()
	for b.Loop() {
		fig, _, err := harness.NewRunner(o).MeasureDynamic()
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.SeriesBy {
			b.ReportMetric(s.Mean, metricName(s.Kind)+"_xBase")
		}
	}
}

// BenchmarkFig9ResumeTime reports each technique's mean normalized
// resume time (Fig 9).
func BenchmarkFig9ResumeTime(b *testing.B) {
	o := benchOptions()
	for b.Loop() {
		_, fig, err := harness.NewRunner(o).MeasureDynamic()
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.SeriesBy {
			b.ReportMetric(s.Mean, metricName(s.Kind)+"_xBase")
		}
	}
}

// BenchmarkFig10RuntimeOverhead reports CKPT's and CTXBack's runtime
// overhead (Fig 10).
func BenchmarkFig10RuntimeOverhead(b *testing.B) {
	o := benchOptions()
	for b.Loop() {
		fig, err := harness.NewRunner(o).Fig10()
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range fig.SeriesBy {
			b.ReportMetric(s.Mean*100, metricName(s.Kind)+"_pct")
		}
	}
}

// BenchmarkAblation reports the mean context ratio for each CTXBack
// feature combination (the DESIGN.md ablation).
func BenchmarkAblation(b *testing.B) {
	o := benchOptions()
	for b.Loop() {
		rows, err := harness.NewRunner(o).Ablation()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.MeanRatio, r.Label+"_xBase")
		}
	}
}

// BenchmarkCompile measures the CTXBack pass itself (compile-time cost
// per kernel instruction).
func BenchmarkCompile(b *testing.B) {
	all, err := kernels.All(kernels.TestParams())
	if err != nil {
		b.Fatal(err)
	}
	for _, wl := range all {
		wl := wl
		b.Run(wl.Abbrev, func(b *testing.B) {
			for b.Loop() {
				if _, err := core.Compile(wl.Prog, core.FeatAll); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(wl.Prog.Len()), "instrs")
		})
	}
}

// BenchmarkSimulator measures raw simulator throughput (simulated kernel
// instructions per second).
func BenchmarkSimulator(b *testing.B) {
	params := kernels.TestParams()
	params.ItersPerWarp = 32
	var totalInstrs int64
	for b.Loop() {
		wl, err := kernels.ByAbbrev("VA", params)
		if err != nil {
			b.Fatal(err)
		}
		d := mustDevice(sim.TestConfig())
		if _, err := wl.Launch(d); err != nil {
			b.Fatal(err)
		}
		if err := d.Run(1 << 40); err != nil {
			b.Fatal(err)
		}
		totalInstrs += d.Stats.KernelInstrs
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(totalInstrs)/secs, "sim_instrs/s")
	}
}

// BenchmarkPreemptEpisode measures one full preempt+resume episode per
// technique on a mid-sized kernel.
func BenchmarkPreemptEpisode(b *testing.B) {
	params := kernels.TestParams()
	params.ItersPerWarp = 24
	for _, kind := range preempt.Kinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			var lastPreempt, lastResume float64
			for b.Loop() {
				wl, err := kernels.ByAbbrev("KM", params)
				if err != nil {
					b.Fatal(err)
				}
				tech, err := preempt.New(kind, wl.Prog)
				if err != nil {
					b.Fatal(err)
				}
				d := mustDevice(sim.TestConfig())
				d.AttachRuntime(tech)
				if _, err := wl.Launch(d); err != nil {
					b.Fatal(err)
				}
				if err := d.RunToCycle(2001, 1<<40); err != nil {
					b.Fatal(err)
				}
				ep, err := d.Preempt(0, tech)
				if err != nil {
					b.Fatal(err)
				}
				if err := d.RunUntil(ep.Saved, 1<<40); err != nil {
					b.Fatal(err)
				}
				if err := d.Resume(ep); err != nil {
					b.Fatal(err)
				}
				if err := d.RunUntil(ep.Finished, 1<<40); err != nil {
					b.Fatal(err)
				}
				cfg := d.Cfg
				lastPreempt = cfg.CyclesToMicros(ep.PreemptLatencyCycles())
				lastResume = cfg.CyclesToMicros(ep.ResumeCycles())
			}
			b.ReportMetric(lastPreempt, "preempt_us")
			b.ReportMetric(lastResume, "resume_us")
		})
	}
}

func metricName(k preempt.Kind) string {
	switch k {
	case preempt.Combined:
		return "Combined"
	case preempt.CSDefer:
		return "CSDefer"
	default:
		return fmt.Sprint(k)
	}
}
