package harness

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"ctxback/internal/isa"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
)

// Forked episodes. Until its signal, an episode of a technique that
// never instruments the kernel runs exactly the uninstrumented golden
// run: its hooks inject nothing and change no state, so every issue,
// cycle and memory word matches. Such an episode therefore starts from
// the golden run's exported state at its signal point (sim.ImportState
// onto a fresh device with the technique attached) instead of
// simulating that prefix again. The golden run stops at each signal
// point of a batch once; device memory is copy-on-write, so each saved
// state costs a page table until an episode writes a page. Episodes of
// instrumenting techniques (CKPT always; CTXBack when its compile places
// OSRB backups) keep the from-scratch path, which is also the reference
// TestForkedEpisodesMatchFresh checks the fork against.

// episode names one preemption episode: registry kernel ki preempted
// under kind at signal cycle at.
type episode struct {
	ki   int
	kind preempt.Kind
	at   int64
}

// forkable reports whether kind never instruments prog. A technique
// that cannot be built for prog is not forkable: its episodes take the
// from-scratch path, which reports the construction error.
func forkable(kind preempt.Kind, prog *isa.Program) bool {
	tech, err := preempt.New(kind, prog)
	return err == nil && !tech.Instruments(prog)
}

// golden is one kernel's uninstrumented run for one batch of episodes:
// its exported state at each signal point of the batch's forked
// episodes. The kernel's first forked episode runs it, stopping at each
// point in turn; the last one to finish drops the states.
type golden struct {
	pts  []int64 // ascending, distinct signal cycles
	once sync.Once
	// states[i] is the state at pts[i], nil where the kernel had
	// finished. With err set, the run failed on the way to
	// pts[len(states)].
	states []*sim.DeviceState
	err    error
	left   atomic.Int64 // forked episodes yet to finish
}

// stateAt returns the state at pts[i], running the golden run first if
// no episode has yet.
func (g *golden) stateAt(o *Options, p *prepared, i int) (*sim.DeviceState, error) {
	g.once.Do(func() { g.err = g.run(o, p) })
	if i < len(g.states) {
		return g.states[i], nil
	}
	return nil, g.err
}

// run simulates the golden run to each point and exports its state
// there. It has the budget a from-scratch episode has for its prefix, so
// a budget overrun fails the same points. A panic fails the points not
// yet reached with an error, so their episodes neither wait nor read as
// drained.
func (g *golden) run(o *Options, p *prepared) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("harness: %s golden run panicked: %v\n%s", p.wl.Abbrev, v, debug.Stack())
		}
	}()
	d, err := sim.NewDevice(o.Cfg)
	if err != nil {
		return err
	}
	launch, err := p.wl.Launch(d)
	if err != nil {
		return err
	}
	for _, at := range g.pts {
		var st *sim.DeviceState
		if !launch.Done() {
			if err := d.RunToCycle(at, o.MaxCycles-d.Now()); err != nil {
				return err
			}
			if !launch.Done() {
				st, _ = d.ExportState()
			}
		}
		g.states = append(g.states, st)
	}
	return nil
}

// release marks one forked episode finished; the last one drops the
// states.
func (g *golden) release() {
	if g.left.Add(-1) == 0 {
		g.states = nil
	}
}

// measureEpisodes measures eps on the worker pool; results[i] is eps[i]'s
// outcome. An episode error is stashed in its result, to surface in the
// caller's fold order; runJobs' own error (a panicking episode) is
// returned, since the crashed slot is zero-valued.
func (r *Runner) measureEpisodes(eps []episode) ([]episodeResult, error) {
	// Forked episodes of one kernel share its golden run. eps come
	// kernel by kernel (computeCells builds them in cell order, and
	// WaitDistribution's are one kernel's), so the pool holds the states
	// of about one kernel per worker at a time.
	goldens := make(map[int]*golden)
	forks := make([]bool, len(eps))
	for i, e := range eps {
		if forks[i] = forkable(e.kind, r.prep[e.ki].p.wl.Prog); forks[i] {
			g := goldens[e.ki]
			if g == nil {
				g = &golden{}
				goldens[e.ki] = g
			}
			g.pts = append(g.pts, e.at)
			g.left.Add(1)
		}
	}
	for _, g := range goldens {
		slices.Sort(g.pts)
		g.pts = slices.Compact(g.pts)
	}
	results := make([]episodeResult, len(eps))
	err := r.runJobs(len(eps), func(i int) error {
		e, p := eps[i], r.prep[eps[i].ki].p
		var res episodeResult
		if !forks[i] {
			res.st, res.ok, _, res.err = r.o.measure(p, e.kind, e.at, nil)
		} else {
			g := goldens[e.ki]
			defer g.release()
			pi, _ := slices.BinarySearch(g.pts, e.at)
			if st, err := g.stateAt(&r.o, p, pi); err != nil {
				res.err = err
			} else if st != nil {
				res.st, res.ok, _, res.err = r.o.measure(p, e.kind, e.at, st)
			}
		}
		results[i] = res
		return nil
	})
	return results, err
}
