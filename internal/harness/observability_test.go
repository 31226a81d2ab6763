package harness

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ctxback/internal/gen"
	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
	"ctxback/internal/trace"
)

// vaFactory adapts the VA benchmark into a kernels.Factory for direct
// Options.prepare use in tests.
func vaFactory(p kernels.Params) (*kernels.Workload, error) {
	return kernels.ByAbbrev("VA", p)
}

func TestSamplePointsProperties(t *testing.T) {
	for _, golden := range []int64{1, 10, 1_000_000_000} {
		for _, n := range []int{1, 3, 5, 8} {
			pts := samplePoints(golden, n)
			if len(pts) < 1 || len(pts) > n {
				t.Fatalf("golden=%d n=%d: %d points", golden, n, len(pts))
			}
			for i, pt := range pts {
				if pt < 1 || pt > max(golden, 1) {
					t.Errorf("golden=%d n=%d: point %d out of [1,%d]", golden, n, pt, golden)
				}
				if i > 0 && pt <= pts[i-1] {
					t.Errorf("golden=%d n=%d: points not strictly increasing: %v", golden, n, pts)
				}
			}
		}
	}
	// A degenerate one-cycle golden run collapses every fraction to the
	// single legal signal cycle.
	if pts := samplePoints(1, 5); len(pts) != 1 || pts[0] != 1 {
		t.Errorf("golden=1: %v, want [1]", pts)
	}
	// Large golden runs must keep the historical point placement exactly
	// (the evaluation output is byte-compared against a golden file).
	if pts := samplePoints(1_000_000_000, 3); fmt.Sprint(pts) != "[150000000 500000000 850000000]" {
		t.Errorf("large-golden points moved: %v", pts)
	}
	if pts := samplePoints(1000, 1); pts[0] != 500 {
		t.Errorf("single point = %v, want 500", pts[0])
	}
}

// TestMeasureCountsOnlyDrainedSignals pins measure's drained outcomes:
// a signal that finds SM 0 without warps (generated seed 881 at 0.7 of
// its golden run, while other SMs still run) and a signal after the
// launch finished are both ok=false without error, but only the first
// counts in episodes.drained.
func TestMeasureCountsOnlyDrainedSignals(t *testing.T) {
	o := QuickOptions()
	o.Metrics = trace.NewRegistry()
	prog := gen.Generate(881)
	p := &prepared{wl: prog.Workload()}
	d, err := sim.NewDevice(o.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.wl.Launch(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(o.MaxCycles); err != nil {
		t.Fatal(err)
	}
	p.goldenCycles = d.Now()
	for _, c := range []struct {
		at                int64
		ok                bool
		drained, measured int64
	}{
		{p.goldenCycles * 3 / 10, true, 0, 1},
		{p.goldenCycles * 7 / 10, false, 1, 1},
		{2 * p.goldenCycles, false, 1, 1},
	} {
		_, ok, _, err := o.measure(o.job(p, c.at), preempt.Baseline)
		if err != nil {
			t.Fatalf("@%d: %v", c.at, err)
		}
		drained := o.Metrics.Counter("episodes.drained").Value()
		measured := o.Metrics.Counter("episodes.measured").Value()
		if ok != c.ok || drained != c.drained || measured != c.measured {
			t.Errorf("@%d: ok %v, drained %d, measured %d; want %v, %d, %d",
				c.at, ok, drained, measured, c.ok, c.drained, c.measured)
		}
	}
}

func TestFoldEpisodesSkipsAndErrors(t *testing.T) {
	st := func(p, r int64) EpisodeStats {
		return EpisodeStats{
			PreemptCycles: p, ResumeCycles: r,
			DrainCycles: p / 4, SaveCycles: p - p/4,
			RestoreCycles: r / 2, ReplayCycles: r - r/2,
		}
	}
	// ok=false entries (drained samples, collapsed sample slots) are
	// skipped, not averaged in as zeros.
	eps := []episodeResult{
		{st: st(100, 40), ok: true},
		{ok: false},
		{st: st(300, 80), ok: true},
	}
	avg, err := foldEpisodes("VA", preempt.Baseline, eps)
	if err != nil {
		t.Fatal(err)
	}
	if avg.PreemptCycles != 200 || avg.ResumeCycles != 60 {
		t.Errorf("avg = %+v, want preempt 200 resume 60", avg)
	}
	if avg.DrainCycles != (25+75)/2 || avg.SaveCycles != (75+225)/2 {
		t.Errorf("phase averages wrong: %+v", avg)
	}
	// An error anywhere surfaces, regardless of later entries.
	boom := errors.New("boom")
	if _, err := foldEpisodes("VA", preempt.Baseline, []episodeResult{
		{st: st(100, 40), ok: true}, {err: boom},
	}); !errors.Is(err, boom) {
		t.Errorf("fold swallowed the error: %v", err)
	}
	// All-skipped is a hard error, not a zero row.
	if _, err := foldEpisodes("VA", preempt.Baseline, []episodeResult{{ok: false}}); err == nil {
		t.Error("all-skipped fold must error")
	}
}

// TestMeasurePhaseReconciliation is the trace-reconciliation satellite:
// for every paper technique, each measured episode's phase fields sum
// EXACTLY to the two headline latencies.
func TestMeasurePhaseReconciliation(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiments are slow")
	}
	o := quick()
	p, err := o.prepare(vaFactory)
	if err != nil {
		t.Fatal(err)
	}
	pts := samplePoints(p.goldenCycles, 2)
	for _, kind := range preempt.Kinds() {
		for _, pt := range pts {
			st, ok, _, err := o.measure(o.job(p, pt), kind)
			if err != nil {
				t.Fatalf("%v@%d: %v", kind, pt, err)
			}
			if !ok {
				continue
			}
			if got := st.DrainCycles + st.SaveCycles; got != st.PreemptCycles {
				t.Errorf("%v@%d: drain+save = %d, want PreemptCycles = %d",
					kind, pt, got, st.PreemptCycles)
			}
			if got := st.RestoreCycles + st.ReplayCycles; got != st.ResumeCycles {
				t.Errorf("%v@%d: restore+replay = %d, want ResumeCycles = %d",
					kind, pt, got, st.ResumeCycles)
			}
			if st.DrainCycles < 0 || st.SaveCycles < 0 || st.RestoreCycles < 0 || st.ReplayCycles < 0 {
				t.Errorf("%v@%d: negative phase in %+v", kind, pt, st)
			}
		}
	}
}

// TestRunnerCountsEpisodes: every episode a Runner measures is counted
// in the metrics registry, and identical runs render identical reports.
func TestRunnerCountsEpisodes(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiments are slow")
	}
	run := func() (*trace.Registry, []TableIRow) {
		o := quick()
		o.Samples = 2
		o.Metrics = trace.NewRegistry()
		rows, err := NewRunner(o).TableI()
		if err != nil {
			t.Fatal(err)
		}
		return o.Metrics, rows
	}
	m, rows := run()
	measured := m.Counter("episodes.measured").Value()
	if measured == 0 {
		t.Fatal("no episodes counted")
	}
	h := m.Histogram("episode.preempt_cycles", trace.DefaultCycleBuckets)
	if h.Count() != measured {
		t.Errorf("histogram count %d != episodes measured %d", h.Count(), measured)
	}
	for _, row := range rows {
		if row.PreemptUs <= 0 {
			t.Errorf("%s: no preemption latency measured: %+v", row.Abbrev, row)
		}
	}
	// Determinism: an identical run renders the identical report.
	m2, _ := run()
	if m.Render() != m2.Render() {
		t.Error("metrics report not deterministic across identical runs")
	}
	if out := m.Render(); !strings.Contains(out, "episode.preempt_cycles") {
		t.Errorf("render missing histogram:\n%s", out)
	}
}

func TestPhaseBreakdownReusesMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiments are slow")
	}
	r := NewRunner(quick())
	kinds := preempt.Kinds()
	if _, _, err := r.MeasureDynamic(); err != nil {
		t.Fatal(err)
	}
	rows, err := r.PhaseBreakdown(kinds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("%d rows, want 12", len(rows))
	}
	for _, row := range rows {
		if len(row.Stats) != len(kinds) {
			t.Fatalf("%s: %d stats, want %d", row.Abbrev, len(row.Stats), len(kinds))
		}
		for kj, st := range row.Stats {
			// Averages reconcile to within integer-division rounding.
			if d := st.DrainCycles + st.SaveCycles - st.PreemptCycles; d < -1 || d > 1 {
				t.Errorf("%s/%v: drain+save off by %d from preempt", row.Abbrev, kinds[kj], d)
			}
			if d := st.RestoreCycles + st.ReplayCycles - st.ResumeCycles; d < -1 || d > 1 {
				t.Errorf("%s/%v: restore+replay off by %d from resume", row.Abbrev, kinds[kj], d)
			}
		}
	}
	// The breakdown over the same kinds must reuse the memoized cells,
	// not re-simulate the sweep.
	computed := r.cellComputes.Load()
	m1, err := r.measureMatrix(kinds)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.cellComputes.Load(); got != computed {
		t.Errorf("repeated sweep measured %d cells again", got-computed)
	}
	for ki, row := range rows {
		if !reflect.DeepEqual(row.Stats, m1[ki]) {
			t.Errorf("%s: breakdown %+v, memoized cells %+v", row.Abbrev, row.Stats, m1[ki])
		}
	}
	if out := RenderPhases(kinds, rows); !strings.Contains(out, "drain") || !strings.Contains(out, "CTXBack") {
		t.Errorf("render missing content:\n%s", out)
	}
}

// TestRunnerSurfacesBudgetOverrun: an episode that overruns the cycle
// budget surfaces its error from the fold instead of being averaged in
// as a zero-valued sample, on the forked path (BASELINE, which stops
// the golden run at each signal) and the from-scratch path (CKPT).
func TestRunnerSurfacesBudgetOverrun(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiments are slow")
	}
	o := quick()
	o.Samples = 3
	r := NewRunner(o)
	if err := r.prepareAll(); err != nil {
		t.Fatal(err)
	}
	// Starve the cycle budget after preparation: every episode's first
	// run to its signal overruns it.
	r.o.MaxCycles = 1
	for _, kind := range []preempt.Kind{preempt.Baseline, preempt.Ckpt} {
		var be *sim.BudgetError
		if _, err := r.measureMatrix([]preempt.Kind{kind}); !errors.As(err, &be) {
			t.Errorf("%v: err = %v, want the budget overrun", kind, err)
		}
	}
}
