package harness

import (
	"fmt"
	"math"

	"ctxback/internal/core"
	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
)

// TableIRow is one benchmark's line of Table I.
type TableIRow struct {
	Abbrev, Name                  string
	VRegKB, SRegKB, LDSKB         float64
	PreemptUs, ResumeUs           float64 // measured, BASELINE
	PaperPreemptUs, PaperResumeUs float64
	Warps                         int // victims preempted per episode
}

// TableI measures the BASELINE context-switch times for every benchmark
// (paper Table I), fanning the episodes across the worker pool.
func (r *Runner) TableI() ([]TableIRow, error) {
	avg, err := r.measureMatrix([]preempt.Kind{preempt.Baseline})
	if err != nil {
		return nil, err
	}
	rows := make([]TableIRow, len(r.prep))
	for i := range r.prep {
		p := r.prep[i].p
		st := avg[i][0]
		prog := p.wl.Prog
		rows[i] = TableIRow{
			Abbrev:         p.wl.Abbrev,
			Name:           p.wl.FullName,
			VRegKB:         float64(prog.VRegContextBytes()) / 1024,
			SRegKB:         float64(prog.SRegContextBytes()) / 1024,
			LDSKB:          float64(prog.LDSBytes) / 1024,
			PreemptUs:      r.o.Cfg.CyclesToMicros(st.PreemptCycles),
			ResumeUs:       r.o.Cfg.CyclesToMicros(st.ResumeCycles),
			PaperPreemptUs: p.wl.PaperPreemptUs,
			PaperResumeUs:  p.wl.PaperResumeUs,
			Warps:          int(st.Victims),
		}
	}
	return rows, nil
}

// Series is one technique's normalized values across the benchmarks.
type Series struct {
	Kind   preempt.Kind
	Label  string
	Values map[string]float64 // abbrev -> value (normalized to BASELINE)
	Mean   float64
}

// Figure is a full multi-series chart (one of Figs 7-10).
type Figure struct {
	Title    string
	Unit     string
	Abbrevs  []string
	SeriesBy []Series
}

// geomeanOrMean is the geometric mean — the right average for the
// normalized ratios of Figs 7-9, where the arithmetic mean overweights
// the benchmarks a technique helps least. It falls back to the
// arithmetic mean when any value is non-positive (Fig 10's overhead
// fractions can legitimately be 0).
func geomeanOrMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	logSum := 0.0
	for _, v := range vals {
		if v <= 0 {
			sum := 0.0
			for _, v := range vals {
				sum += v
			}
			return sum / float64(len(vals))
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(vals)))
}

// Fig7 computes the normalized context size per benchmark (static
// analysis, averaged over the instructions of the kernel, plus each
// warp's LDS share which every technique must swap). The CKPT series is
// the checkpoint size — the paper's dashed "minimum possible size".
// Kernels are analyzed in parallel; the per-kernel work is pure static
// analysis so no golden run is needed.
func (r *Runner) Fig7() (*Figure, error) {
	kinds := preempt.Kinds()
	reg := kernels.Registry()
	abbrevs := make([]string, len(reg))
	bytesPer := make([][]float64, len(reg)) // [kernel][kind] mean context bytes
	err := r.runJobs(len(reg), func(ki int) error {
		wl, err := reg[ki](r.o.Params)
		if err != nil {
			return err
		}
		abbrevs[ki] = wl.Abbrev
		ldsShare := 0
		if wl.Prog.LDSBytes > 0 {
			ldsShare = wl.Prog.LDSBytes / r.o.Params.WarpsPerBlock
		}
		row := make([]float64, len(kinds))
		for kj, k := range kinds {
			t, err := preempt.New(k, wl.Prog)
			if err != nil {
				return fmt.Errorf("%s/%v: %w", wl.Abbrev, k, err)
			}
			var sum float64
			for pc := 0; pc < wl.Prog.Len(); pc++ {
				sum += float64(t.StaticContextBytes(pc) + ldsShare)
			}
			row[kj] = sum / float64(wl.Prog.Len())
		}
		bytesPer[ki] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig := &Figure{Title: "Fig 7: normalized context size", Unit: "x BASELINE", Abbrevs: abbrevs}
	baseIdx := 0
	for kj, k := range kinds {
		if k == preempt.Baseline {
			baseIdx = kj
		}
	}
	for kj, k := range kinds {
		s := Series{Kind: k, Label: k.String(), Values: make(map[string]float64)}
		var vals []float64
		for ki, ab := range abbrevs {
			v := bytesPer[ki][kj] / bytesPer[ki][baseIdx]
			s.Values[ab] = v
			vals = append(vals, v)
		}
		s.Mean = geomeanOrMean(vals)
		fig.SeriesBy = append(fig.SeriesBy, s)
	}
	return fig, nil
}

// MeasureDynamic runs the preemption experiments once and derives both
// Fig 8 (preemption time) and Fig 9 (resume time) from the same
// episodes. Every (kernel, technique, sample) episode runs on the
// worker pool; the fold back into figures is in registry order.
func (r *Runner) MeasureDynamic() (fig8, fig9 *Figure, err error) {
	kinds := preempt.Kinds()
	avg, err := r.measureMatrix(kinds)
	if err != nil {
		return nil, nil, err
	}
	fig8 = &Figure{Title: "Fig 8: normalized preemption time", Unit: "x BASELINE"}
	fig9 = &Figure{Title: "Fig 9: normalized resume time", Unit: "x BASELINE"}
	for i := range r.prep {
		ab := r.prep[i].p.wl.Abbrev
		fig8.Abbrevs = append(fig8.Abbrevs, ab)
		fig9.Abbrevs = append(fig9.Abbrevs, ab)
	}
	baseIdx := 0
	for kj, k := range kinds {
		if k == preempt.Baseline {
			baseIdx = kj
		}
	}
	fill := func(fig *Figure, get func(EpisodeStats) int64) {
		for kj, k := range kinds {
			s := Series{Kind: k, Label: k.String(), Values: make(map[string]float64)}
			var vals []float64
			for ki, ab := range fig.Abbrevs {
				v := float64(get(avg[ki][kj])) / float64(get(avg[ki][baseIdx]))
				s.Values[ab] = v
				vals = append(vals, v)
			}
			s.Mean = geomeanOrMean(vals)
			fig.SeriesBy = append(fig.SeriesBy, s)
		}
	}
	fill(fig8, func(st EpisodeStats) int64 { return st.PreemptCycles })
	fill(fig9, func(st EpisodeStats) int64 { return st.ResumeCycles })
	return fig8, fig9, nil
}

// Fig10 measures the runtime overhead of the two techniques that do work
// during normal execution: CKPT's checkpoint stores and CTXBack's OSRB
// copies. The clean run is the golden run prepare already simulated and
// verified, and so is the run of a technique that never instruments the
// kernel (CTXBack where its compile places no backup); the instrumented
// full runs are independent simulations on the worker pool.
func (r *Runner) Fig10() (*Figure, error) {
	if err := r.prepareAll(); err != nil {
		return nil, err
	}
	kinds := []preempt.Kind{preempt.Ckpt, preempt.CTXBack}
	nk := len(r.prep)
	runs := 1 + len(kinds) // clean + one per instrumented kind
	cycles := make([]int64, nk*runs)
	err := r.runJobs(nk*runs, func(f int) error {
		ki, j := f/runs, f%runs
		p := r.prep[ki].p
		if j == 0 {
			cycles[f] = p.goldenCycles
			return nil
		}
		tech, err := preempt.New(kinds[j-1], p.wl.Prog)
		if err != nil {
			return err
		}
		if !sim.Instruments(tech, p.wl.Prog) {
			cycles[f] = p.goldenCycles
			return nil
		}
		cycles[f], err = r.o.runtimeCycles(p, tech)
		return err
	})
	if err != nil {
		return nil, err
	}
	fig := &Figure{Title: "Fig 10: runtime overhead", Unit: "fraction of clean runtime"}
	for i := range r.prep {
		fig.Abbrevs = append(fig.Abbrevs, r.prep[i].p.wl.Abbrev)
	}
	for kj, k := range kinds {
		s := Series{Kind: k, Label: k.String(), Values: make(map[string]float64)}
		var vals []float64
		for ki, ab := range fig.Abbrevs {
			clean := cycles[ki*runs]
			with := cycles[ki*runs+1+kj]
			v := float64(with-clean) / float64(clean)
			s.Values[ab] = v
			vals = append(vals, v)
		}
		s.Mean = geomeanOrMean(vals)
		fig.SeriesBy = append(fig.SeriesBy, s)
	}
	return fig, nil
}

// AblationRow reports the static context reduction of one CTXBack
// feature combination.
type AblationRow struct {
	Feats     core.Feature
	Label     string
	MeanRatio float64 // mean normalized context vs BASELINE
}

// Ablation quantifies each of CTXBack's three techniques (DESIGN.md
// call-out): strict condition only, +relaxed, +reverting, +OSRB. Each
// (combo, kernel) compilation is an independent static analysis, so the
// full cross product goes to the worker pool. Compiles go through the
// technique memo, so the full-feature plans Fig 7 already built are
// reused and -cache-dir persists every combination.
func (r *Runner) Ablation() ([]AblationRow, error) {
	combos := []core.Feature{
		0,
		core.FeatRelaxed,
		core.FeatRelaxed | core.FeatRevert,
		core.FeatAll,
	}
	reg := kernels.Registry()
	nk := len(reg)
	ratios := make([]float64, len(combos)*nk)
	err := r.runJobs(len(ratios), func(f int) error {
		ci, ki := f/nk, f%nk
		feats := combos[ci]
		wl, err := reg[ki](r.o.Params)
		if err != nil {
			return err
		}
		c, err := preempt.CompileCTXBack(wl.Prog, feats)
		if err != nil {
			return fmt.Errorf("%s/%v: %w", wl.Abbrev, feats, err)
		}
		base, err := preempt.New(preempt.Baseline, wl.Prog)
		if err != nil {
			return err
		}
		var sum, sumBase float64
		for pc := 0; pc < wl.Prog.Len(); pc++ {
			sum += float64(c.Plans[pc].ContextBytes)
			sumBase += float64(base.StaticContextBytes(pc))
		}
		ratios[f] = sum / sumBase
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(combos))
	for ci, feats := range combos {
		rows[ci] = AblationRow{
			Feats:     feats,
			Label:     feats.String(),
			MeanRatio: geomeanOrMean(ratios[ci*nk : (ci+1)*nk]),
		}
	}
	return rows, nil
}

// Summary aggregates the headline numbers the paper reports in the
// abstract and §V.
type Summary struct {
	ContextReductionCTXBack float64 // vs BASELINE (Fig 7 mean)
	ContextReductionLive    float64
	ContextReductionCSDefer float64
	ContextReductionComb    float64
	RatioToMinimum          float64 // CTXBack / CKPT checkpoint size
	PreemptReductionCTXBack float64 // Fig 8 mean
	PreemptReductionComb    float64
	CSDeferVsCTXBackLatency float64 // how much longer CS-Defer's latency is
	ResumeReductionCTXBack  float64 // Fig 9 mean
	ResumeReductionCSDefer  float64
	CKPTResumeRatio         float64 // CKPT resume vs BASELINE
	OverheadCTXBack         float64 // Fig 10 mean
	OverheadCKPT            float64
}

// Summarize derives the summary from already-computed figures.
func Summarize(fig7, fig8, fig9, fig10 *Figure) Summary {
	get := func(f *Figure, k preempt.Kind) float64 {
		for _, s := range f.SeriesBy {
			if s.Kind == k {
				return s.Mean
			}
		}
		return 0
	}
	s := Summary{
		ContextReductionCTXBack: 1 - get(fig7, preempt.CTXBack),
		ContextReductionLive:    1 - get(fig7, preempt.Live),
		ContextReductionCSDefer: 1 - get(fig7, preempt.CSDefer),
		ContextReductionComb:    1 - get(fig7, preempt.Combined),
		PreemptReductionCTXBack: 1 - get(fig8, preempt.CTXBack),
		PreemptReductionComb:    1 - get(fig8, preempt.Combined),
		ResumeReductionCTXBack:  1 - get(fig9, preempt.CTXBack),
		ResumeReductionCSDefer:  1 - get(fig9, preempt.CSDefer),
		CKPTResumeRatio:         get(fig9, preempt.Ckpt),
		OverheadCTXBack:         get(fig10, preempt.CTXBack),
		OverheadCKPT:            get(fig10, preempt.Ckpt),
	}
	if m := get(fig7, preempt.Ckpt); m > 0 {
		s.RatioToMinimum = get(fig7, preempt.CTXBack) / m
	}
	if c := get(fig8, preempt.CTXBack); c > 0 {
		s.CSDeferVsCTXBackLatency = get(fig8, preempt.CSDefer)/c - 1
	}
	return s
}
