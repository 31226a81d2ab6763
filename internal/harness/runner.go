package harness

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ctxback/internal/artifact"
	"ctxback/internal/kernels"
	"ctxback/internal/pool"
	"ctxback/internal/preempt"
)

// Runner is the parallel evaluation engine behind the experiments. It
// owns three responsibilities the plain Options functions cannot:
//
//   - Golden-run memoization: prepare() (grid sizing + uninterrupted
//     golden simulation) is computed once per registry kernel and shared
//     read-only by every experiment on the same Runner, so an -all sweep
//     no longer re-simulates each golden run per figure.
//
//   - One measurement per episode: every (kernel, technique) cell's
//     sample average is measured once per Runner, whichever experiment
//     asks first, so Table I's BASELINE cells are the ones Figs 8-9 and
//     the phase breakdown read.
//
//   - Episode scheduling: every (kernel, technique, sample) episode is
//     an independent deterministic simulation on its own Device, so the
//     Runner fans them out to a worker pool and folds the results back
//     in the exact order the serial path used. Sums over int64 cycle
//     counts are order-independent, and per-cell folds walk samples in
//     index order, so reported numbers are bit-identical to Parallelism
//     1 (covered by TestParallelDeterminism). An episode whose technique
//     never instruments its kernel forks from the kernel's golden run
//     instead of simulating the prefix to its signal point (fork.go).
//
// Workloads are safe to share across concurrent Devices: factories
// capture their inputs and golden outputs at construction, and
// Init/WarpSetup/Verify only read them while writing per-episode device
// state. Technique compilation behind preempt.New is memoized by
// program content in the process artifact store (see
// internal/preempt/cache.go).
type Runner struct {
	o    Options
	prep []prepEntry // one slot per kernels.Registry() index

	// Cell memoization. Each (kernel, kind) cell is computed exactly
	// once (single-flight): a caller that finds a cell missing claims it
	// and computes it, and callers that need a claimed cell wait for it
	// instead of simulating it again. Errors are memoized too — episodes
	// are deterministic, so a retry would fail identically.
	cmu   sync.Mutex
	cells map[cellKey]*cell

	// cellComputes counts cells actually measured (not memo hits); the
	// single-flight test asserts one compute per cell. Atomic because
	// distinct cells may compute concurrently.
	cellComputes atomic.Int64
}

// cellKey names one (registry kernel, technique) cell.
type cellKey struct {
	ki   int
	kind preempt.Kind
}

// cell is one single-flight cell computation: done closes once st and
// err are final.
type cell struct {
	done chan struct{}
	st   EpisodeStats
	err  error
}

type prepEntry struct {
	once sync.Once
	p    *prepared
	err  error
}

// NewRunner builds a Runner over the full kernel registry.
func NewRunner(o Options) *Runner {
	return &Runner{
		o:     o,
		prep:  make([]prepEntry, len(kernels.Registry())),
		cells: make(map[cellKey]*cell),
	}
}

// preparedFor returns the memoized prepared workload for registry index
// i. Concurrent callers block on the same sync.Once, so each golden run
// is simulated exactly once per Runner.
func (r *Runner) preparedFor(i int) (*prepared, error) {
	e := &r.prep[i]
	e.once.Do(func() {
		e.p, e.err = r.o.prepare(kernels.Registry()[i])
	})
	return e.p, e.err
}

// runJobs runs jobs 0..n-1 on the worker pool at Options.Parallelism
// (pool.Run).
func (r *Runner) runJobs(n int, job func(i int) error) error {
	return pool.Run(r.o.Parallelism, n, job)
}

// prepareAll forces every registry kernel's prepared workload, in
// parallel. Experiments call this as their first phase so the episode
// phase never blocks a worker on a golden run.
func (r *Runner) prepareAll() error {
	return r.runJobs(len(r.prep), func(i int) error {
		_, err := r.preparedFor(i)
		return err
	})
}

// episodeResult is one measured (kernel, technique, sample) episode.
type episodeResult struct {
	st  EpisodeStats
	ok  bool
	err error
}

// divRound divides non-negative sum by n rounding half up. Truncating
// division biased every averaged stat downward by up to one cycle/byte;
// rounding keeps the average within half a unit of the true mean.
func divRound(sum, n int64) int64 { return (sum + n/2) / n }

// foldEpisodes averages the episodes that hit a running SM, walking them
// in sample order; the first error in that order surfaces.
func foldEpisodes(abbrev string, kind preempt.Kind, eps []episodeResult) (EpisodeStats, error) {
	var sum EpisodeStats
	var count int64
	for _, e := range eps {
		if e.err != nil {
			return EpisodeStats{}, e.err
		}
		if !e.ok {
			continue
		}
		sum.PreemptCycles += e.st.PreemptCycles
		sum.ResumeCycles += e.st.ResumeCycles
		sum.SavedBytes += e.st.SavedBytes
		sum.Victims += e.st.Victims
		sum.DrainCycles += e.st.DrainCycles
		sum.SaveCycles += e.st.SaveCycles
		sum.RestoreCycles += e.st.RestoreCycles
		sum.ReplayCycles += e.st.ReplayCycles
		count++
	}
	if count == 0 {
		return EpisodeStats{}, fmt.Errorf("%s/%v: no sample point hit a running SM", abbrev, kind)
	}
	sum.PreemptCycles = divRound(sum.PreemptCycles, count)
	sum.ResumeCycles = divRound(sum.ResumeCycles, count)
	sum.SavedBytes = divRound(sum.SavedBytes, count)
	sum.Victims = divRound(sum.Victims, count)
	sum.DrainCycles = divRound(sum.DrainCycles, count)
	sum.SaveCycles = divRound(sum.SaveCycles, count)
	sum.RestoreCycles = divRound(sum.RestoreCycles, count)
	sum.ReplayCycles = divRound(sum.ReplayCycles, count)
	return sum, nil
}

// measureMatrix returns every registry kernel's sample-averaged episode
// under each of kinds: avg[ki][kj] corresponds to Registry()[ki] under
// kinds[kj]. It reads the Runner's cells, through the artifact store
// when that persists to a directory (matrixFor).
func (r *Runner) measureMatrix(kinds []preempt.Kind) ([][]EpisodeStats, error) {
	if artifact.Default().Dir() != "" {
		return r.matrixFor(kinds)
	}
	return r.cellMatrix(kinds)
}

// cellMatrix is measureMatrix over the Runner's cell memo. Cells another
// call already measured, or is measuring, are reused; the rest are
// measured together on the worker pool. Episode errors are reported in
// the serial path's order: cells in (kernel, kind) order, samples in
// index order within a cell.
func (r *Runner) cellMatrix(kinds []preempt.Kind) ([][]EpisodeStats, error) {
	if err := r.prepareAll(); err != nil {
		return nil, err
	}
	nk, nt := len(r.prep), len(kinds)
	cells := make([]*cell, nk*nt)
	var mine []int // indices into cells this call claimed
	r.cmu.Lock()
	for f := range cells {
		k := cellKey{f / nt, kinds[f%nt]}
		c := r.cells[k]
		if c == nil {
			c = &cell{done: make(chan struct{})}
			r.cells[k] = c
			mine = append(mine, f)
		}
		cells[f] = c
	}
	r.cmu.Unlock()
	if len(mine) > 0 {
		r.computeCells(kinds, cells, mine)
	}
	avg := make([][]EpisodeStats, nk)
	for ki := range avg {
		avg[ki] = make([]EpisodeStats, nt)
		for kj := range avg[ki] {
			c := cells[ki*nt+kj]
			<-c.done
			if c.err != nil {
				return nil, c.err
			}
			avg[ki][kj] = c.st
		}
	}
	return avg, nil
}

// computeCells measures the cells mine of measureMatrix's (kernel,
// kind) matrix as one batch of episodes on the worker pool, then folds
// each cell's samples in index order and closes it. Only measureMatrix
// calls it, for the cells it claimed.
func (r *Runner) computeCells(kinds []preempt.Kind, cells []*cell, mine []int) {
	nt := len(kinds)
	// Sample points are fixed per kernel. A short golden run can yield
	// fewer than Samples distinct points; the cell averages the ones it
	// has.
	pts := make(map[int][]int64)
	var eps []episode
	for _, f := range mine {
		ki := f / nt
		if _, ok := pts[ki]; !ok {
			p := r.prep[ki].p
			pts[ki] = samplePoints(p.goldenCycles, r.o.Samples)
			if got := len(pts[ki]); got < max(r.o.Samples, 1) {
				r.o.logf("%s: golden run of %d cycles yields only %d distinct sample points (want %d)",
					p.wl.Abbrev, p.goldenCycles, got, r.o.Samples)
			}
		}
		for _, at := range pts[ki] {
			eps = append(eps, episode{ki: ki, kind: kinds[f%nt], at: at})
		}
	}
	// A crashed episode fails every cell of the batch: its slot is
	// zero-valued, and the fold would average it as a drained sample.
	results, err := r.measureEpisodes(eps)
	for _, f := range mine {
		ki, kind := f/nt, kinds[f%nt]
		c := cells[f]
		if c.err = err; err == nil {
			n := len(pts[ki])
			c.st, c.err = foldEpisodes(r.prep[ki].p.wl.Abbrev, kind, results[:n])
			results = results[n:]
		}
		r.cellComputes.Add(1)
		close(c.done)
	}
}
