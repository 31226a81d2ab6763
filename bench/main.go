// Command bench is the repository benchmark. It runs named workloads
// against the simulator's packages, checks every output, and prints each
// metric as "workload metric value unit", then one JSON line:
//
//	bash bench/run.sh --workload serve --seed 42 --seconds 15 --trace 0
//
// Each workload runs in a child process, the same binary re-executed, so
// in-process memo caches start cold as they do for a CLI invocation. An
// untraced run (--trace 0) reports the end-to-end metrics: two set-up-only
// children and one measuring child, one at a time. A traced run (--trace
// 1) reports the per-layer metrics: a measuring child untraced and then
// one traced, each for half the time, so the difference between them is
// the tracing overhead. Without --workload every workload runs in turn.
// Host times are reported at a nominal host speed, measured by a fixed
// loop run next to them (calib.go). See README.md for the workloads and
// how to compare two commits.
package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// childProcs is every child's GOMAXPROCS. On a few shared cores a
	// second processor makes op time depend on what the neighbours run;
	// on one, workloads, GC and the sharded engine's goroutines take
	// turns on the core the child has.
	childProcs = 1
	setupRuns  = 3                 // cold set-ups per untraced run; setup_s is their median
	rssCapKiB  = 3 << 20           // a child whose resident set passes 3 GiB is killed and fails
	runBudget  = 170 * time.Second // per workload, children included
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// host records where a run was measured.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Rev        string `json:"rev"`
}

// report is one workload's outcome, as written by -json.
type report struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Error     string            `json:"error,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds what an untraced run learns beyond its metrics: its
	// memory, the host's speed and the simulated outcome of the first pass.
	Extra map[string]metric `json:"extra,omitempty"`
	Files []string          `json:"files,omitempty"`
}

func main() {
	t0 := time.Now()
	var (
		o        options
		child    string
		jsonPath string
		traceArg int
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: every workload in turn)")
	flag.Uint64Var(&o.seed, "seed", 42, "seed the workload inputs derive from (7 is held out)")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the measured phase; at least one pass always runs")
	flag.IntVar(&traceArg, "trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "where traced runs write span files and CPU profiles")
	flag.StringVar(&o.scale, "scale", "full", "workload sizes: full, or smoke for a seconds-long check")
	flag.StringVar(&jsonPath, "json", "", "also write the reports as JSON to this file")
	flag.StringVar(&child, "child", "", "internal: run as a child process (measure or setup)")
	flag.Parse()

	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		usage("unexpected arguments %q", flag.Args())
	}
	if traceArg != 0 && traceArg != 1 {
		usage("-trace must be 0 or 1, got %d", traceArg)
	}
	o.trace = traceArg == 1
	if _, ok := scales[o.scale]; !ok {
		usage("unknown -scale %q (want full or smoke)", o.scale)
	}
	if math.IsNaN(o.seconds) || o.seconds < 0 {
		usage("-seconds must be >= 0, got %v", o.seconds)
	}
	selected := workloads
	if o.workload != "" {
		i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == o.workload })
		if i < 0 {
			usage("unknown -workload %q", o.workload)
		}
		selected = workloads[i : i+1]
	}

	if child != "" {
		if len(selected) != 1 || (child != "measure" && child != "setup") {
			usage("-child wants measure or setup and one -workload")
		}
		res := measure(selected[0], o, t0, child == "setup")
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h := hostInfo()
	fmt.Printf("# host cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Rev)
	var reports []*report
	ok := true
	for _, w := range selected {
		rep := runWorkload(ctx, w, o)
		rep.Host = h
		printReport(rep)
		reports = append(reports, rep)
		ok = ok && rep.Correct
	}
	if jsonPath != "" {
		if err := writeJSON(jsonPath, reports); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload measures one workload through its child processes.
func runWorkload(ctx context.Context, w workload, o options) *report {
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()
	rep := &report{Workload: w.name, Seed: o.seed, Trace: o.trace, Metrics: map[string]metric{}}
	fail := func(err error) *report {
		rep.Error = err.Error()
		rep.Attempted = max(rep.Attempted, 1)
		rep.Failed = rep.Attempted
		return rep
	}
	if o.trace {
		half := o
		half.seconds = o.seconds / 2
		half.trace = false
		u, _, err := runChild(ctx, w, half, "measure")
		if err != nil {
			return fail(err)
		}
		half.trace = true
		t, peakKiB, err := runChild(ctx, w, half, "measure")
		if err != nil {
			return fail(err)
		}
		rep.Attempted, rep.Failed = u.Attempted+t.Attempted, u.Failed+t.Failed
		rep.Error, rep.Files = cmp.Or(u.Error, t.Error), t.Files
		rep.Metrics = perLayerMetrics(u, t, peakKiB)
	} else {
		var setups []*childResult
		for k := 1; k < setupRuns; k++ {
			s, _, err := runChild(ctx, w, o, "setup")
			if err != nil {
				return fail(err)
			}
			if s.Failed > 0 {
				return fail(fmt.Errorf("set-up: %s", s.Error))
			}
			setups = append(setups, s)
		}
		m, peakKiB, err := runChild(ctx, w, o, "measure")
		if err != nil {
			return fail(err)
		}
		rep.Attempted, rep.Failed, rep.Error = m.Attempted, m.Failed, m.Error
		rep.Metrics = endToEndMetrics(m, append(setups, m))
		extra := maps.Clone(m.Sim)
		extra["mem.peak_rss_mb"] = float64(peakKiB) / 1024
		extra["mem.retained_mb"] = float64(m.Retained) / (1 << 20)
		hostMetrics(m, extra)
		rep.Extra = map[string]metric{}
		for _, d := range perLayer {
			if v, ok := extra[d.name]; ok {
				rep.Extra[d.name] = metric{v, d.unit}
			}
		}
	}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			delete(rep.Metrics, name)
			if rep.Error == "" {
				rep.Error = fmt.Sprintf("metric %s is %v", name, m.Value)
			}
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Error == ""
	return rep
}

// endToEndMetrics derives the end-to-end metrics from an untraced
// measuring child and every child whose set-up the run timed.
func endToEndMetrics(m *childResult, setups []*childResult) map[string]metric {
	var setupS []float64
	for _, s := range setups {
		setupS = append(setupS, nominal(int64(s.SetupS*1e9), s.SetupCal)/1e9)
	}
	vals := map[string]float64{
		"op_ms":    itemMedian(m.Ops, nominalWall) / 1e6,
		"alloc_mb": itemMedian(m.Ops, func(s opSample) float64 { return float64(s.Alloc) }) / (1 << 20),
		"setup_s":  median(setupS),
	}
	out := make(map[string]metric, len(endToEnd))
	for _, d := range endToEnd {
		out[d.name] = metric{vals[d.name], d.unit}
	}
	return out
}

// hostMetrics adds to m what an untraced child measured of the host: the
// op time before scaling to nominal speed, and the host's speed relative
// to nominal.
func hostMetrics(u *childResult, m map[string]float64) {
	m["host.op_ms"] = itemMedian(u.Ops, func(s opSample) float64 { return float64(s.Wall) }) / 1e6
	cals := make([]float64, len(u.Ops))
	for i, s := range u.Ops {
		cals[i] = float64(s.Cal)
	}
	m["host.speed"] = calNominal / median(cals)
}

// perLayerMetrics derives the per-layer metrics from a traced child, its
// peak resident set in KiB, and the untraced child that ran before it. A
// layer the workload never reaches reads 0.
func perLayerMetrics(u, t *childResult, peakKiB int64) map[string]metric {
	vals := maps.Clone(t.Layer)
	maps.Copy(vals, t.Sim)
	vals["mem.peak_rss_mb"] = float64(peakKiB) / 1024
	vals["mem.retained_mb"] = float64(t.Retained) / (1 << 20)
	hostMetrics(u, vals)
	if base := itemMedian(u.Ops, nominalWall); base > 0 {
		vals["tracing.overhead_frac"] = itemMedian(t.Ops, nominalWall)/base - 1
	}
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = metric{vals[d.name], d.unit}
	}
	return out
}

// runChild runs one child process of this binary and decodes its result.
// The child is killed when ctx ends or its resident set passes the cap;
// either way runChild waits for it to exit. It returns the child's
// maximum resident set in KiB.
func runChild(ctx context.Context, w workload, o options, mode string) (*childResult, int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", w.name,
		"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace, "-trace-dir", o.traceDir, "-scale", o.scale)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	// A child must not outlive a parent that is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", mode, err)
	}
	stopWatch := watchRSS(cmd.Process)
	waitErr := cmd.Wait()
	capped := stopWatch()
	var rss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	switch {
	case capped:
		return nil, rss, fmt.Errorf("%s child killed: resident set passed %d MiB", mode, rssCapKiB>>10)
	case ctx.Err() != nil:
		return nil, rss, fmt.Errorf("%s child killed: %w", mode, ctx.Err())
	case waitErr != nil:
		return nil, rss, fmt.Errorf("%s child: %w", mode, waitErr)
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, rss, fmt.Errorf("%s child result: %w", mode, err)
	}
	return &res, rss, nil
}

// watchRSS polls the process's resident set and kills it past the cap.
// The returned stop ends the watch, waits for it, and reports whether it
// killed the process.
func watchRSS(p *os.Process) (stop func() bool) {
	done := make(chan struct{})
	var fired atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if rssKiB(p.Pid) > rssCapKiB {
					fired.Store(true)
					p.Kill() // an error means it already exited
					return
				}
			}
		}
	}()
	return func() bool {
		close(done)
		wg.Wait()
		return fired.Load()
	}
}

// rssKiB reads VmRSS from /proc; 0 when the process is gone.
func rssKiB(pid int) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			if f := strings.Fields(v); len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

func hostInfo() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: childProcs, Go: runtime.Version(), Rev: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if rev := os.Getenv("BENCH_GIT_REV"); rev != "" {
		h.Rev = rev
	}
	return h
}

// printReport prints every metric as "workload metric value unit", then
// the result as one JSON line.
func printReport(rep *report) {
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if m, ok := rep.Metrics[d.name]; ok {
			fmt.Printf("%s %s %s %s\n", rep.Workload, d.name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		}
	}
	for _, d := range perLayer {
		if m, ok := rep.Extra[d.name]; ok {
			fmt.Printf("%s %s %s %s\n", rep.Workload, d.name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		}
	}
	for _, f := range rep.Files {
		fmt.Printf("# %s wrote %s\n", rep.Workload, f)
	}
	if rep.Error != "" {
		fmt.Printf("# %s error: %s\n", rep.Workload, strings.ReplaceAll(rep.Error, "\n", " "))
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		panic(err) // every value is finite by construction
	}
	fmt.Println(string(line))
}

func writeJSON(path string, reports []*report) error {
	b, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
