package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"time"
)

// metricDef is one metric of the catalog BENCHMARK.json mirrors.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, for every workload.
var endToEnd = []metricDef{
	{"op_ms", "ms"},     // host wall time of one op at nominal host speed
	{"alloc_mb", "MiB"}, // heap allocated by one op
	{"setup_s", "s"},    // median of three cold set-ups at nominal host speed
}

// perLayer are the metrics a traced run reports, for every workload; a
// layer the workload never reaches reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, s := range spanNames {
		defs = append(defs, metricDef{s + ".calls", "count"}, metricDef{s + ".frac", "frac"})
	}
	defs = append(defs,
		metricDef{"sim.cycles", "cycles"},
		metricDef{"sim.kernel_instrs", "count"},
		metricDef{"episodes.useful_ratio", "ratio"},
		metricDef{"sim.ctxback_ctx_x_base", "x"},
		metricDef{"sim.ctxback_preempt_x_base", "x"},
		metricDef{"sim.ctxback_resume_x_base", "x"},
		metricDef{"sim.ctxback_overhead_pct", "%"},
	)
	for _, label := range []string{"ctxback", "baseline"} {
		for _, ph := range []string{"drain", "save", "restore", "replay"} {
			defs = append(defs, metricDef{"sim.phase." + label + "." + ph + "_kcycles", "kcycles"})
		}
	}
	for _, c := range []string{"arrived", "admitted", "completed", "preemptions", "rearbitrations", "migrations"} {
		defs = append(defs, metricDef{"sched." + c, "count"})
	}
	defs = append(defs,
		metricDef{"sched.admit_ratio", "ratio"},
		metricDef{"serve.p50_turnaround_kcycles", "kcycles"},
		metricDef{"serve.p99_turnaround_kcycles", "kcycles"},
		metricDef{"serve.shed_permille", "permille"},
		metricDef{"snapshot.image_mb", "MiB"},
		metricDef{"snapshot.restore_kcycles", "kcycles"},
		metricDef{"snapshot.warm_ratio", "ratio"},
		metricDef{"snapshot.speculative_ratio", "ratio"},
		metricDef{"snapshot.capture_mb_per_s", "MiB/s"},
		metricDef{"snapshot.restore_mb_per_s", "MiB/s"},
	)
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu." + l + ".frac", "frac"})
	}
	return append(defs,
		metricDef{"host.op_ms", "ms"},
		metricDef{"host.speed", "x"},
		metricDef{"sim.epoch.speedup", "x"},
		metricDef{"mem.peak_rss_mb", "MiB"},
		metricDef{"mem.retained_mb", "MiB"},
		metricDef{"tracing.overhead_frac", "frac"},
	)
}()

// options are the benchmark's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	scale    string
}

// childResult is what one child process reports to its parent.
type childResult struct {
	SetupS    float64            `json:"setup_s"`
	SetupCal  int64              `json:"setup_cal_ns"` // calibrate's time around set-up
	TotalS    float64            `json:"total_s"`      // less the time spent calibrating
	Ops       []opSample         `json:"ops"`
	Retained  int64              `json:"retained_bytes"` // live heap after a GC at the end
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Error     string             `json:"error,omitempty"`
	Sim       map[string]float64 `json:"sim"`   // simulated, over the first pass
	Layer     map[string]float64 `json:"layer"` // traced runs only
	Files     []string           `json:"files,omitempty"`
}

type opSample struct {
	Item  int   `json:"item"`
	Wall  int64 `json:"wall_ns"`
	Cal   int64 `json:"cal_ns"`      // calibrate's mean time just before and just after the op
	Alloc int64 `json:"alloc_bytes"` // heap bytes the op allocated
}

// nominal scales a host time t taken next to a calibration of cal ns to
// nominal host speed.
func nominal(t, cal int64) float64 { return float64(t) * calNominal / float64(cal) }

func nominalWall(s opSample) float64 { return nominal(s.Wall, s.Cal) }

// measure sets the workload up and, unless setupOnly, runs its measured
// phase for o.seconds and at least one pass. t0 is when the process
// started its own work; set-up time runs from there, less the time spent
// calibrating. It is the whole job of a child process.
func measure(w workload, o options, t0 time.Time, setupOnly bool) *childResult {
	res := &childResult{Sim: map[string]float64{}, Layer: map[string]float64{}}
	c0 := time.Now()
	calibrate() // the first run also faults the loop's memory in
	calBefore := calibrate()
	calTime := time.Since(c0)
	tr := &tracer{on: o.trace, t0: t0, op: "setup"}
	e := &env{seed: o.seed, sz: scales[o.scale], tr: tr}
	b, err := w.setup(e)
	resume := quiesceGC()
	res.SetupS = (time.Since(t0) - calTime).Seconds()
	c1 := time.Now()
	cal := calibrate() // also the first op's calibration before it
	res.SetupCal = (calBefore + cal) / 2
	calTime += time.Since(c1)
	resume()
	if err != nil {
		res.Attempted, res.Failed, res.Error = 1, 1, "setup: "+err.Error()
		return res
	}
	if setupOnly {
		return res
	}
	prof := filepath.Join(o.traceDir, w.name+".cpu.pprof")
	var profFile *os.File
	if o.trace {
		err := os.MkdirAll(o.traceDir, 0o755)
		if err == nil {
			profFile, err = os.Create(prof)
		}
		if err == nil {
			if err = pprof.StartCPUProfile(profFile); err != nil {
				profFile.Close()
			}
		}
		if err != nil {
			res.Attempted, res.Failed, res.Error = 1, 1, "cpu profile: "+err.Error()
			return res
		}
	}

	pass := b.pass()
	digests := make([]string, pass)
	p, probing := b.(prober)
	probing = probing && o.trace
	start := time.Now()
	for i := 0; i < pass || time.Since(start).Seconds() < o.seconds; i++ {
		tr.op = fmt.Sprintf("%d/%d", o.seed, i)
		w0, a0 := time.Now(), heapStat(0)
		digest, err := b.op(i)
		resume := quiesceGC()
		wall, alloc := int64(time.Since(w0)), heapStat(0)-a0
		calAfter := calibrate()
		calTime += time.Duration(calAfter)
		resume()
		res.Ops = append(res.Ops, opSample{Item: i % pass, Wall: wall, Cal: (cal + calAfter) / 2, Alloc: alloc})
		cal = calAfter
		res.Attempted++
		if err == nil && digest != "" {
			if i < pass {
				digests[i] = digest
			} else if digest != digests[i%pass] {
				err = fmt.Errorf("op %d repeats op %d's input but its simulated outcome differs:\n  %s\n  %s",
					i, i%pass, digests[i%pass], digest)
			}
		}
		if err == nil && probing {
			err = p.probe(i)
		}
		if err != nil {
			res.Failed++
			res.Error = fmt.Sprintf("op %d: %v", i, err)
			break
		}
	}
	res.TotalS = (time.Since(t0) - calTime).Seconds()
	runtime.GC()
	res.Retained = heapStat(1)
	if res.Attempted-res.Failed >= pass {
		b.sim(res.Sim)
	}
	if !o.trace {
		return res
	}

	pprof.StopCPUProfile()
	closeErr := profFile.Close()
	calls, ns := spanTotals(tr.spans)
	for _, s := range spanNames {
		res.Layer[s+".calls"] = float64(calls[s])
		res.Layer[s+".frac"] = float64(ns[s]) / (res.TotalS * 1e9)
	}
	if r, ok := b.(rater); ok {
		r.rates(ns, res.Layer)
	}
	if probing {
		p.probeMetrics(res.Layer)
	}
	fold, err := foldProfile(prof)
	if closeErr != nil {
		err = closeErr
	}
	if err == nil {
		for l, v := range fold {
			res.Layer["cpu."+l+".frac"] = v
		}
		spans := filepath.Join(o.traceDir, w.name+".spans.jsonl")
		err = writeSpans(spans, tr.spans)
		res.Files = []string{spans, prof}
	}
	if err != nil {
		res.Failed++
		res.Error = "trace output: " + err.Error()
	}
	return res
}

// quiesceGC waits for the mark phase of any GC cycle in progress to end,
// and keeps the collector off until the returned resume turns it back on.
// An op or set-up thus pays for finishing the cycle it started, and no
// cycle runs into the calibration after it.
func quiesceGC() (resume func()) {
	old := debug.SetGCPercent(-1) // waits for a running mark phase
	return func() { debug.SetGCPercent(old) }
}

var heapSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"}, // cumulative bytes allocated
	{Name: "/gc/heap/live:bytes"},   // live heap as of the last GC
}

// heapStat reads heapSamples[i].
func heapStat(i int) int64 {
	metrics.Read(heapSamples)
	if heapSamples[i].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(heapSamples[i].Value.Uint64())
}

// itemMedian is the mean over items of each item's median op value: the
// measured phase's value per op, with the items a final partial pass
// reached weighted like the rest. The median over an item's repeats drops
// the cold first repeat and the repeats a burst of load on a shared host
// slowed down.
func itemMedian(ops []opSample, val func(opSample) float64) float64 {
	byItem := map[int][]float64{}
	for _, s := range ops {
		byItem[s.Item] = append(byItem[s.Item], val(s))
	}
	var total float64
	for _, v := range byItem {
		total += median(v)
	}
	return total / float64(max(len(byItem), 1))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
