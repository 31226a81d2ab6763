package harness

import (
	"fmt"
	"sort"
	"strings"

	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/trace"
)

// QoSRow summarizes the waiting-time distribution one technique imposes
// on incoming latency-sensitive jobs for one kernel: the paper's §I
// motivation is that the *tail* of this distribution, not just the mean,
// determines whether QoS guarantees hold.
type QoSRow struct {
	Kind                 preempt.Kind
	MeanUs, P95Us, MaxUs float64
	ResumeMeanUs         float64
}

// QoSResult is the distribution study for one victim kernel.
type QoSResult struct {
	Abbrev  string
	Samples int
	Rows    []QoSRow
}

// WaitDistribution preempts the kernel at n points spread across its
// whole runtime and reports the preemption-latency distribution per
// technique. Unlike Fig 8 (means, normalized), this surfaces the tail.
// The (technique, arrival point) episodes all run on the worker pool;
// statistics fold in sample order so the reported distribution matches
// the serial path exactly.
func (r *Runner) WaitDistribution(abbrev string, n int) (*QoSResult, error) {
	ki := -1
	for i, f := range kernels.Registry() {
		wl, err := f(r.o.Params)
		if err != nil {
			return nil, err
		}
		if wl.Abbrev == abbrev {
			ki = i
			break
		}
	}
	if ki < 0 {
		return nil, fmt.Errorf("harness: unknown benchmark %q", abbrev)
	}
	p, err := r.preparedFor(ki)
	if err != nil {
		return nil, err
	}
	var kinds []preempt.Kind
	for _, kind := range preempt.ExtendedKinds() {
		if _, err := preempt.New(kind, p.wl.Prog); err != nil {
			continue // e.g. SM-flushing on a non-idempotent kernel
		}
		kinds = append(kinds, kind)
	}
	eps := make([]episode, 0, len(kinds)*n)
	for _, kind := range kinds {
		for i := 0; i < n; i++ {
			frac := 0.05 + 0.9*float64(i)/float64(max(n-1, 1))
			eps = append(eps, episode{ki: ki, kind: kind, at: int64(frac * float64(p.goldenCycles))})
		}
	}
	// Episode errors surface below, in serial order; a crashed episode
	// left its slot zero-valued, and the fold would skip it as drained.
	results, err := r.measureEpisodes(eps)
	if err != nil {
		return nil, err
	}
	res := &QoSResult{Abbrev: abbrev, Samples: n}
	for kj, kind := range kinds {
		var waits, resumes []float64
		for i := 0; i < n; i++ {
			e := results[kj*n+i]
			if e.err != nil {
				return nil, e.err
			}
			if !e.ok {
				continue
			}
			waits = append(waits, r.o.Cfg.CyclesToMicros(e.st.PreemptCycles))
			resumes = append(resumes, r.o.Cfg.CyclesToMicros(e.st.ResumeCycles))
		}
		if len(waits) == 0 {
			continue
		}
		sort.Float64s(waits)
		res.Rows = append(res.Rows, QoSRow{
			Kind:         kind,
			MeanUs:       mean(waits),
			P95Us:        waits[trace.NearestRank(int64(len(waits)), 0.95)-1],
			MaxUs:        waits[len(waits)-1],
			ResumeMeanUs: mean(resumes),
		})
	}
	return res, nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// RenderQoS formats the distribution table.
func RenderQoS(r *QoSResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Waiting-time distribution on %s (%d arrival points)\n", r.Abbrev, r.Samples)
	fmt.Fprintf(&b, "%-18s %12s %12s %12s %14s\n", "technique", "mean us", "p95 us", "max us", "resume mean us")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 72))
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s %12.2f %12.2f %12.2f %14.2f\n",
			row.Kind, row.MeanUs, row.P95Us, row.MaxUs, row.ResumeMeanUs)
	}
	return b.String()
}
