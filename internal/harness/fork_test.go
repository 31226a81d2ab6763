package harness

import (
	"strings"
	"testing"

	"ctxback/internal/core"
	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
)

// TestForkedEpisodesMatchFresh is the fork's differential test: on every
// quick kernel, every paper technique and every sample point, with
// Verify on, an episode forked from the golden run's state must give the
// from-scratch episode's stats, final clock and final memory. It also
// pins which episodes fork: BASELINE, LIVE and CS-Defer everywhere, CKPT
// nowhere, CTXBack and CTXBack+CS-Defer exactly where the compile places
// no OSRB backup, which at quick parameters makes 112 forked episodes.
// Last, the Runner's cells (forked where possible) must equal the folds
// of the from-scratch episodes.
func TestForkedEpisodesMatchFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick episode twice")
	}
	o := QuickOptions()
	o.Verify = true
	r := NewRunner(o)
	kinds := preempt.Kinds()
	avg, err := r.measureMatrix(kinds)
	if err != nil {
		t.Fatal(err)
	}
	forked := 0
	for ki := range r.prep {
		p := r.prep[ki].p
		prog := p.wl.Prog
		c, err := preempt.CompileCTXBack(prog, core.FeatAll)
		if err != nil {
			t.Fatal(err)
		}
		pts := samplePoints(p.goldenCycles, o.Samples)
		g := &golden{pts: pts}
		for kj, kind := range kinds {
			want := map[preempt.Kind]bool{
				preempt.Baseline: true, preempt.Live: true, preempt.CSDefer: true,
				preempt.CTXBack: len(c.BackupAt) == 0, preempt.Combined: len(c.BackupAt) == 0,
			}[kind]
			if got := forkable(kind, prog); got != want {
				t.Errorf("%s/%v: forkable = %v, want %v", p.wl.Abbrev, kind, got, want)
			}
			fresh := make([]episodeResult, len(pts))
			for si, pt := range pts {
				st, ok, d, err := o.measure(o.job(p, pt), kind)
				if err != nil {
					t.Fatalf("%s/%v@%d from scratch: %v", p.wl.Abbrev, kind, pt, err)
				}
				fresh[si] = episodeResult{st: st, ok: ok}
				if !want {
					continue
				}
				from, err := g.stateAt(&o, p, si)
				if err != nil {
					t.Fatalf("%s@%d golden: %v", p.wl.Abbrev, pt, err)
				}
				if from == nil {
					if ok {
						t.Errorf("%s/%v@%d: the golden run had finished, but the fresh episode preempted", p.wl.Abbrev, kind, pt)
					}
					continue
				}
				forked++
				j := o.job(p, pt)
				j.From = from
				fst, fok, fd, err := o.measure(j, kind)
				if err != nil {
					t.Fatalf("%s/%v@%d forked: %v", p.wl.Abbrev, kind, pt, err)
				}
				if fst != st || fok != ok {
					t.Errorf("%s/%v@%d: forked %+v (ok %v), fresh %+v (ok %v)", p.wl.Abbrev, kind, pt, fst, fok, st, ok)
				}
				if fd.Now() != d.Now() {
					t.Errorf("%s/%v@%d: forked run ends at cycle %d, fresh at %d", p.wl.Abbrev, kind, pt, fd.Now(), d.Now())
				}
				if i := fd.Mem.Diff(d.Mem); i != -1 {
					t.Errorf("%s/%v@%d: memories differ at word %d", p.wl.Abbrev, kind, pt, i)
				}
			}
			fold, err := foldEpisodes(p.wl.Abbrev, kind, fresh)
			if err != nil {
				t.Fatal(err)
			}
			if avg[ki][kj] != fold {
				t.Errorf("%s/%v: Runner cell %+v, from-scratch fold %+v", p.wl.Abbrev, kind, avg[ki][kj], fold)
			}
		}
	}
	// 12 kernels x 2 samples under BASELINE, LIVE and CS-Defer, and
	// under CTXBack and CTXBack+CS-Defer on the 10 kernels whose compile
	// places no OSRB backup (all but DOT and HS).
	if forked != 112 {
		t.Fatalf("%d of the quick episodes forked, want 112", forked)
	}
}

// seedVA pre-seeds r's prepared VA entry with VA's workload as edit
// leaves it, before any experiment prepares it.
func seedVA(t *testing.T, r *Runner, edit func(*kernels.Workload)) {
	t.Helper()
	p, err := r.o.prepare(vaFactory)
	if err != nil {
		t.Fatal(err)
	}
	wl := *p.wl
	edit(&wl)
	for i, f := range kernels.Registry() {
		if w, err := f(r.o.Params); err == nil && w.Abbrev == "VA" {
			e := &r.prep[i]
			e.once.Do(func() { e.p = &prepared{wl: &wl, goldenCycles: p.goldenCycles} })
			return
		}
	}
	t.Fatal("no VA in the registry")
}

// TestWaitDistributionReturnsPanic pins the QoS crash fix: an episode
// that panics must fail the study, not leave a zero slot the fold skips
// as drained. VA's prepared workload is pre-seeded without a Verify
// function, so every verifying episode panics.
func TestWaitDistributionReturnsPanic(t *testing.T) {
	o := QuickOptions()
	o.Verify = true
	r := NewRunner(o)
	seedVA(t, r, func(wl *kernels.Workload) { wl.Verify = nil })
	if _, err := r.WaitDistribution("VA", 3); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("WaitDistribution = %v, want the episode panic", err)
	}
}

// TestGoldenRunPanicFailsItsEpisodes: a golden run that panics must fail
// its kernel's forked episodes with the panic, on the worker pool too,
// instead of leaving them waiting or reading the missing states as
// drained. VA's prepared workload is pre-seeded with an Init that
// panics, and Table I's BASELINE episodes all fork, so the golden run is
// the first to launch it.
func TestGoldenRunPanicFailsItsEpisodes(t *testing.T) {
	for _, procs := range []int{1, 4} {
		o := QuickOptions()
		o.Parallelism = procs
		r := NewRunner(o)
		seedVA(t, r, func(wl *kernels.Workload) {
			wl.Init = func(*sim.Device) error { panic("init") }
		})
		if _, err := r.TableI(); err == nil || !strings.Contains(err.Error(), "VA golden run panicked: init") {
			t.Fatalf("procs %d: TableI = %v, want the golden run's panic", procs, err)
		}
	}
}
