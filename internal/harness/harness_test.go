package harness

import (
	"strings"
	"testing"

	"ctxback/internal/preempt"
)

func quick() Options {
	o := QuickOptions()
	o.Samples = 1
	return o
}

func TestTableIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiments are slow")
	}
	rows, err := NewRunner(quick()).TableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("Table I has %d rows, want 12", len(rows))
	}
	byAb := map[string]TableIRow{}
	for _, r := range rows {
		byAb[r.Abbrev] = r
		if r.PreemptUs <= 0 || r.ResumeUs <= 0 {
			t.Errorf("%s: non-positive times %v %v", r.Abbrev, r.PreemptUs, r.ResumeUs)
		}
		if r.VRegKB <= 0 {
			t.Errorf("%s: no vreg usage", r.Abbrev)
		}
	}
	// Rank shape from the paper: KM (13 KB) must cost more to switch
	// than VA (3 KB); HS's LDS makes it expensive despite few vregs.
	if byAb["KM"].PreemptUs <= byAb["VA"].PreemptUs {
		t.Errorf("KM preempt (%.1f) should exceed VA (%.1f)", byAb["KM"].PreemptUs, byAb["VA"].PreemptUs)
	}
	if byAb["HS"].PreemptUs <= byAb["RELU"].PreemptUs {
		t.Errorf("HS preempt (%.1f) should exceed RELU (%.1f)", byAb["HS"].PreemptUs, byAb["RELU"].PreemptUs)
	}
	out := RenderTableI(rows)
	if !strings.Contains(out, "K-Means") || !strings.Contains(out, "Paper P us") {
		t.Error("rendered table missing expected content")
	}
}

func TestFig7Shape(t *testing.T) {
	fig, err := NewRunner(quick()).Fig7()
	if err != nil {
		t.Fatal(err)
	}
	mean := map[preempt.Kind]float64{}
	for _, s := range fig.SeriesBy {
		mean[s.Kind] = s.Mean
		for ab, v := range s.Values {
			if v <= 0 || v > 1.0001 {
				t.Errorf("%v/%s: normalized context %v outside (0,1]", s.Kind, ab, v)
			}
		}
	}
	// The paper's ordering: everything beats BASELINE; CTXBack is close
	// to the CKPT minimum; LIVE is the weakest reducer.
	if !(mean[preempt.Live] < 1) {
		t.Errorf("LIVE mean = %v, want < 1", mean[preempt.Live])
	}
	if !(mean[preempt.CTXBack] < mean[preempt.Live]) {
		t.Errorf("CTXBack (%v) must beat LIVE (%v)", mean[preempt.CTXBack], mean[preempt.Live])
	}
	if ratio := mean[preempt.CTXBack] / mean[preempt.Ckpt]; ratio > 1.5 {
		t.Errorf("CTXBack/minimum ratio = %.2f, paper reports 1.09", ratio)
	}
	if !(mean[preempt.Combined] <= mean[preempt.CTXBack]+1e-9) {
		t.Errorf("combined (%v) must not exceed CTXBack (%v)", mean[preempt.Combined], mean[preempt.CTXBack])
	}
	if s := RenderFigure(fig); !strings.Contains(s, "MEAN") {
		t.Error("rendered figure missing mean column")
	}
}

func TestFig8Fig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiments are slow")
	}
	f8, f9, err := NewRunner(quick()).MeasureDynamic()
	if err != nil {
		t.Fatal(err)
	}
	get := func(f *Figure, k preempt.Kind) float64 {
		for _, s := range f.SeriesBy {
			if s.Kind == k {
				return s.Mean
			}
		}
		return -1
	}
	// Preemption latency: CTXBack < LIVE < BASELINE; CKPT near zero.
	if !(get(f8, preempt.CTXBack) < get(f8, preempt.Live)) {
		t.Errorf("Fig8: CTXBack (%v) must beat LIVE (%v)", get(f8, preempt.CTXBack), get(f8, preempt.Live))
	}
	if !(get(f8, preempt.Ckpt) < get(f8, preempt.CTXBack)) {
		t.Errorf("Fig8: CKPT drop (%v) should have the lowest latency", get(f8, preempt.Ckpt))
	}
	// Resume: CKPT is by far the worst (replay), per the paper.
	if !(get(f9, preempt.Ckpt) > get(f9, preempt.CTXBack)) {
		t.Errorf("Fig9: CKPT resume (%v) must exceed CTXBack (%v)", get(f9, preempt.Ckpt), get(f9, preempt.CTXBack))
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiments are slow")
	}
	fig, err := NewRunner(quick()).Fig10()
	if err != nil {
		t.Fatal(err)
	}
	var ckpt, ctx float64
	for _, s := range fig.SeriesBy {
		switch s.Kind {
		case preempt.Ckpt:
			ckpt = s.Mean
		case preempt.CTXBack:
			ctx = s.Mean
		}
	}
	if ctx > 0.02 {
		t.Errorf("CTXBack runtime overhead %.3f, paper reports 0.41%%", ctx)
	}
	if ckpt < ctx {
		t.Errorf("CKPT overhead (%v) must exceed CTXBack's (%v)", ckpt, ctx)
	}
}

func TestAblationMonotone(t *testing.T) {
	rows, err := NewRunner(quick()).Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("ablation rows = %d, want 4", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].MeanRatio > rows[i-1].MeanRatio+1e-9 {
			t.Errorf("adding %q increased the context ratio: %.4f -> %.4f",
				rows[i].Label, rows[i-1].MeanRatio, rows[i].MeanRatio)
		}
	}
	if s := RenderAblation(rows); !strings.Contains(s, "Reduction") {
		t.Error("rendered ablation missing header")
	}
}

func TestSummarizeAndRender(t *testing.T) {
	mk := func(vals map[preempt.Kind]float64) *Figure {
		f := &Figure{}
		for k, v := range vals {
			f.SeriesBy = append(f.SeriesBy, Series{Kind: k, Mean: v})
		}
		return f
	}
	f7 := mk(map[preempt.Kind]float64{preempt.Live: 0.62, preempt.CTXBack: 0.39, preempt.Ckpt: 0.36, preempt.CSDefer: 0.38, preempt.Combined: 0.38})
	f8 := mk(map[preempt.Kind]float64{preempt.CTXBack: 0.37, preempt.CSDefer: 0.50, preempt.Combined: 0.35})
	f9 := mk(map[preempt.Kind]float64{preempt.CTXBack: 0.50, preempt.CSDefer: 0.34, preempt.Ckpt: 3.18})
	f10 := mk(map[preempt.Kind]float64{preempt.CTXBack: 0.004, preempt.Ckpt: 1.30})
	s := Summarize(f7, f8, f9, f10)
	if s.ContextReductionCTXBack < 0.60 || s.ContextReductionCTXBack > 0.62 {
		t.Errorf("context reduction = %v", s.ContextReductionCTXBack)
	}
	if s.RatioToMinimum < 1.0 || s.RatioToMinimum > 1.2 {
		t.Errorf("ratio to minimum = %v", s.RatioToMinimum)
	}
	if s.CSDeferVsCTXBackLatency < 0.3 || s.CSDeferVsCTXBackLatency > 0.4 {
		t.Errorf("CS-Defer latency delta = %v", s.CSDeferVsCTXBackLatency)
	}
	out := RenderSummary(s)
	if !strings.Contains(out, "61.0%") || !strings.Contains(out, "paper") {
		t.Error("summary rendering missing paper references")
	}
}

func TestSamplePoints(t *testing.T) {
	pts := samplePoints(1000, 3)
	if len(pts) != 3 {
		t.Fatalf("points = %v", pts)
	}
	if pts[0] < 100 || pts[2] > 900 || pts[0] >= pts[2] {
		t.Errorf("points poorly spread: %v", pts)
	}
	one := samplePoints(1000, 1)
	if one[0] != 500 {
		t.Errorf("single point = %v, want 500", one[0])
	}
}

func TestWaitDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiments are slow")
	}
	r, err := NewRunner(quick()).WaitDistribution("VA", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range r.Rows {
		if row.MaxUs < row.P95Us || row.P95Us < 0 {
			t.Errorf("%v: inconsistent distribution mean=%v p95=%v max=%v",
				row.Kind, row.MeanUs, row.P95Us, row.MaxUs)
		}
	}
	if s := RenderQoS(r); !strings.Contains(s, "p95") {
		t.Error("render missing p95 column")
	}
	if _, err := NewRunner(quick()).WaitDistribution("NOPE", 2); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestContentionSweepMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("harness experiments are slow")
	}
	rows, err := ContentionSweep(quick(), "VA")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].WorstUs < rows[i-1].WorstUs {
			t.Errorf("worst-case switch must grow with victims: %v then %v",
				rows[i-1].WorstUs, rows[i].WorstUs)
		}
	}
	if s := RenderContention("VA", rows); !strings.Contains(s, "slowest") {
		t.Error("render missing column")
	}
}
