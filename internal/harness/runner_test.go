package harness

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"ctxback/internal/preempt"
)

// TestRunJobsPanicBecomesError pins the worker-crash contract: a
// panicking job must surface as an error from runJobs (pool.Run) that
// names the job and carries its stack — on the inline path and on the
// pool — never kill the process or leave a silently zero-valued slot
// behind.
func TestRunJobsPanicBecomesError(t *testing.T) {
	for _, procs := range []int{1, 4} {
		o := QuickOptions()
		o.Parallelism = procs
		r := NewRunner(o)
		err := r.runJobs(8, func(i int) error {
			if i == 5 {
				panic("episode exploded")
			}
			return nil
		})
		if err == nil {
			t.Fatalf("procs=%d: panicking job returned nil error", procs)
		}
		if !strings.Contains(err.Error(), "job 5 panicked: episode exploded") || !strings.Contains(err.Error(), "goroutine ") {
			t.Errorf("procs=%d: error does not identify the panic: %v", procs, err)
		}
	}
}

// TestMeasureMatrixSingleFlight proves the cache-stampede fix: N
// concurrent callers that miss the cell memo together must measure each
// (kernel, kind) cell exactly once, with every caller receiving the same
// result.
func TestMeasureMatrixSingleFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a full episode matrix")
	}
	o := QuickOptions()
	o.Samples = 1
	r := NewRunner(o)
	kinds := []preempt.Kind{preempt.Baseline}
	cells := int64(len(r.prep) * len(kinds))

	const callers = 8
	results := make([][][]EpisodeStats, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c], errs[c] = r.measureMatrix(kinds)
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", c, err)
		}
	}
	if got := r.cellComputes.Load(); got != cells {
		t.Errorf("%d cells measured under concurrent callers, want %d", got, cells)
	}
	for c := 1; c < callers; c++ {
		if !reflect.DeepEqual(results[c], results[0]) {
			t.Errorf("caller %d received a different matrix than caller 0", c)
		}
	}
	// A later call on the warm memo is also a hit, and so is a matrix
	// whose cells other kind lists already measured.
	if _, err := r.measureMatrix(kinds); err != nil {
		t.Fatal(err)
	}
	if _, err := r.measureMatrix(append(kinds, kinds...)); err != nil {
		t.Fatal(err)
	}
	if got := r.cellComputes.Load(); got != cells {
		t.Errorf("warm-memo calls measured cells again (computes=%d, want %d)", got, cells)
	}
}

// TestFoldEpisodesRoundsHalfUp pins the averaging fix: truncating
// division biased every stat downward by up to one cycle/byte.
func TestFoldEpisodesRoundsHalfUp(t *testing.T) {
	eps := []episodeResult{
		{st: EpisodeStats{PreemptCycles: 1, ResumeCycles: 4, SavedBytes: 9, Victims: 3,
			DrainCycles: 1, SaveCycles: 0, RestoreCycles: 2, ReplayCycles: 2}, ok: true},
		{st: EpisodeStats{PreemptCycles: 2, ResumeCycles: 5, SavedBytes: 10, Victims: 4,
			DrainCycles: 2, SaveCycles: 0, RestoreCycles: 3, ReplayCycles: 2}, ok: true},
	}
	st, err := foldEpisodes("VA", preempt.Baseline, eps)
	if err != nil {
		t.Fatal(err)
	}
	// (1+2)/2 rounds to 2 (truncation gave 1); (4+5)/2 rounds to 5;
	// (9+10)/2 rounds to 10; victims (3+4)/2 rounds to 4.
	if st.PreemptCycles != 2 || st.ResumeCycles != 5 || st.SavedBytes != 10 || st.Victims != 4 {
		t.Errorf("fold = %+v, want round-half-up averages 2/5/10/4", st)
	}
	if st.DrainCycles != 2 || st.RestoreCycles != 3 || st.ReplayCycles != 2 {
		t.Errorf("phase fold = %+v, want 2/0/3/2", st)
	}
}

// TestFoldEpisodesExactAverage: rounding must not perturb exact means.
func TestFoldEpisodesExactAverage(t *testing.T) {
	eps := []episodeResult{
		{st: EpisodeStats{PreemptCycles: 10, Victims: 2}, ok: true},
		{st: EpisodeStats{PreemptCycles: 20, Victims: 2}, ok: true},
	}
	st, err := foldEpisodes("VA", preempt.Baseline, eps)
	if err != nil {
		t.Fatal(err)
	}
	if st.PreemptCycles != 15 || st.Victims != 2 {
		t.Errorf("fold = %+v, want exact 15/2", st)
	}
}
