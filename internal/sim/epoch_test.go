package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ctxback/internal/isa"
)

// observables is everything a run exposes; two runs that agree here (and
// on memory, compared separately) are byte-identical for every consumer.
type observables struct {
	Now        int64
	Stats      DeviceStats
	Migrations int64
}

func observe(d *Device) observables {
	return observables{Now: d.now, Stats: d.Stats, Migrations: d.migrations}
}

// barrierLoopProgram is a barrier-heavy kernel: two block-wide barriers
// per loop iteration, with LDS traffic crossing each. It maximizes
// park/release churn at epoch boundaries.
func barrierLoopProgram(tb testing.TB) *isa.Program {
	tb.Helper()
	p, err := isa.Assemble(`
.kernel barrloop
.vregs 8
.sregs 16
.lds 512
  ; s0 = loop count, s1 = out base (bytes)
  v_laneid v0
  v_mov v1, 0
  v_shl v2, v0, 2 !noovf
loop:
  v_add v1, v1, s0
  v_and v1, v1, 0xFFFF
  v_lstore v2, v1, 0
  s_barrier
  v_lload v3, v2, 0
  v_add v1, v1, v3
  s_barrier
  s_sub s0, s0, 1
  s_cmp_gt s0, 0
  s_cbranch_scc1 loop
  v_add v2, v2, s1
  v_gstore v2, v1, 0
  s_endpgm
`)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// runOccupancy drives the full-occupancy two-tenant bench workload to
// completion at the given shard count and returns the observables plus
// the final device (for memory comparison).
func runOccupancy(t *testing.T, shards int) (observables, *Device) {
	t.Helper()
	d := benchOccupancyDevice(t, benchLoopProgram(t))
	d.SetShards(shards)
	if err := d.Run(1 << 40); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	return observe(d), d
}

// TestShardedMatchesSerialOccupancy pins the epoch engine to the serial
// engine on the benchmark workload at every shard width.
func TestShardedMatchesSerialOccupancy(t *testing.T) {
	want, wantDev := runOccupancy(t, 1)
	if want.Stats.Instructions == 0 || want.Stats.LDSBytes == 0 {
		t.Fatalf("degenerate serial run: %+v", want)
	}
	for _, shards := range []int{2, 3, 4, 8} {
		got, gotDev := runOccupancy(t, shards)
		if got != want {
			t.Errorf("shards=%d observables = %+v, want %+v", shards, got, want)
		}
		if i := gotDev.Mem.Diff(wantDev.Mem); i >= 0 {
			t.Fatalf("shards=%d: Mem[%d] = %#x, want %#x", shards, i, gotDev.Mem.Load(i), wantDev.Mem.Load(i))
		}
	}
}

// oversubscribedDevice launches more barrier-kernel blocks than fit, so
// blocksPending stays non-zero deep into the run and every endpgm
// triggers a dispatch — the regime where the horizon must bound static
// distances to program end.
func oversubscribedDevice(tb testing.TB, loops uint64) *Device {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.GlobalMemBytes = 1 << 20
	d := mustNewDevice(cfg)
	prog := barrierLoopProgram(tb)
	_, err := d.Launch(LaunchSpec{
		Prog: prog, NumBlocks: 3 * cfg.NumSMs, WarpsPerBlock: 4,
		Setup: func(w *Warp) {
			w.SRegs[0] = loops
			w.SRegs[1] = uint64(1<<18 + w.ID*isa.WarpSize*4)
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// episodeRun drives an oversubscribed barrier workload through a full
// preemption episode signalled at signalCycle, recording observables at
// every phase boundary. It exercises exactly the transitions the epoch
// engine must serialize: RunToCycle crossing, preemption entry, save
// completion, resume, replay completion, and final drain.
func episodeRun(t testing.TB, shards int, signalCycle int64) ([]observables, Phases, *Device) {
	t.Helper()
	d := oversubscribedDevice(t, 40)
	d.SetShards(shards)
	var obs []observables
	fail := func(stage string, err error) {
		t.Fatalf("shards=%d %s: %v", shards, stage, err)
	}
	if err := d.RunToCycle(signalCycle, 1<<40); err != nil {
		fail("to-signal", err)
	}
	obs = append(obs, observe(d))
	ep, err := d.Preempt(0, naiveRuntime{})
	if err != nil {
		fail("preempt", err)
	}
	if err := d.RunUntil(ep.Saved, 1<<40); err != nil {
		fail("save", err)
	}
	obs = append(obs, observe(d))
	if err := d.Resume(ep); err != nil {
		fail("resume", err)
	}
	if err := d.RunUntil(ep.Finished, 1<<40); err != nil {
		fail("replay", err)
	}
	obs = append(obs, observe(d))
	if err := d.Run(1 << 40); err != nil {
		fail("drain", err)
	}
	obs = append(obs, observe(d))
	return obs, ep.Phases(), d
}

// TestShardedEpisodePhases pins episode phase decomposition and every
// intermediate boundary observable across shard widths.
func TestShardedEpisodePhases(t *testing.T) {
	for _, signal := range []int64{100, 1337, 5000} {
		wantObs, wantPhases, wantDev := episodeRun(t, 1, signal)
		for _, shards := range []int{2, 4} {
			gotObs, gotPhases, gotDev := episodeRun(t, shards, signal)
			for i := range wantObs {
				if gotObs[i] != wantObs[i] {
					t.Errorf("signal=%d shards=%d stage %d: %+v, want %+v",
						signal, shards, i, gotObs[i], wantObs[i])
				}
			}
			if gotPhases != wantPhases {
				t.Errorf("signal=%d shards=%d phases = %+v, want %+v",
					signal, shards, gotPhases, wantPhases)
			}
			if i := gotDev.Mem.Diff(wantDev.Mem); i >= 0 {
				t.Fatalf("signal=%d shards=%d: Mem[%d] differs", signal, shards, i)
			}
		}
	}
}

// TestShardedBudgetErrorPreCommit verifies the budget contract under
// sharding: the rejection fires before the offending step commits, so
// the clock, stats and queue state match the serial engine's exactly,
// and the run can continue with a larger budget to an identical end.
func TestShardedBudgetErrorPreCommit(t *testing.T) {
	run := func(shards int) (*Device, *BudgetError, observables) {
		d := oversubscribedDevice(t, 40)
		d.SetShards(shards)
		err := d.RunToCycle(1<<30, 500)
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("shards=%d: got %v, want *BudgetError", shards, err)
		}
		return d, be, observe(d)
	}
	wantDev, wantBE, wantObs := run(1)
	if wantObs.Now > wantBE.Limit {
		t.Fatalf("budget overshoot committed: now %d past limit %d", wantObs.Now, wantBE.Limit)
	}
	for _, shards := range []int{2, 4} {
		gotDev, gotBE, gotObs := run(shards)
		if *gotBE != *wantBE {
			t.Errorf("shards=%d BudgetError = %+v, want %+v", shards, *gotBE, *wantBE)
		}
		if gotObs != wantObs {
			t.Errorf("shards=%d observables = %+v, want %+v", shards, gotObs, wantObs)
		}
		// The rejected step must not have perturbed any shard-local
		// state: finishing both runs must agree byte-for-byte.
		if err := gotDev.Run(1 << 40); err != nil {
			t.Fatalf("shards=%d continue: %v", shards, err)
		}
		if err := wantDev.Run(1 << 40); err != nil {
			t.Fatalf("serial continue: %v", err)
		}
		if g, w := observe(gotDev), observe(wantDev); g != w {
			t.Errorf("shards=%d after continue = %+v, want %+v", shards, g, w)
		}
		wantDev, _, _ = run(1) // fresh serial baseline for the next width
	}
}

// TestShardedAdvanceTo checks the clock fast-forward is untouched by the
// engine selection.
func TestShardedAdvanceTo(t *testing.T) {
	d := mustNewDevice(TestConfig())
	d.SetShards(2)
	d.AdvanceTo(1234)
	if d.Now() != 1234 || d.Stats.Cycles != 1234 {
		t.Fatalf("AdvanceTo: now=%d cycles=%d", d.Now(), d.Stats.Cycles)
	}
	d.AdvanceTo(10)
	if d.Now() != 1234 {
		t.Fatalf("AdvanceTo moved the clock backwards: %d", d.Now())
	}
}

// TestSetShardsClamps pins the shard-count normalization.
func TestSetShardsClamps(t *testing.T) {
	d := mustNewDevice(TestConfig()) // NumSMs = 2
	d.SetShards(64)
	if got := d.Shards(); got != 2 {
		t.Fatalf("SetShards(64) on 2 SMs = %d, want 2", got)
	}
	d.SetShards(1)
	if got := d.Shards(); got != 1 {
		t.Fatalf("SetShards(1) = %d", got)
	}
	d.SetShards(0) // auto: GOMAXPROCS capped at NumSMs — never below 1
	if got := d.Shards(); got < 1 || got > 2 {
		t.Fatalf("SetShards(0) = %d, want 1..2", got)
	}
}

// TestEpochStress hammers epoch boundaries: barrier-heavy kernels with
// undispatched blocks, preemption signalled mid-epoch at pseudo-random
// cycles, across shard counts and seeds. Run under -race (make check)
// it is the engine's data-race gate; its outputs are also pinned to the
// serial engine per seed.
func TestEpochStress(t *testing.T) {
	seeds := []int64{1, 7, 20260808}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// Keep the signal well inside the workload's lifetime so SM 0
			// always has live kernel warps to preempt.
			signal := 1 + rng.Int63n(1500)
			loops := uint64(24 + rng.Intn(24))
			run := func(shards int) ([]observables, Phases) {
				d := oversubscribedDevice(t, loops)
				d.SetShards(shards)
				if err := d.RunToCycle(signal, 1<<40); err != nil {
					t.Fatalf("shards=%d to-signal: %v", shards, err)
				}
				ep, err := d.Preempt(0, naiveRuntime{})
				if err != nil {
					t.Fatalf("shards=%d preempt: %v", shards, err)
				}
				if err := d.RunUntil(ep.Saved, 1<<40); err != nil {
					t.Fatalf("shards=%d save: %v", shards, err)
				}
				mid := observe(d)
				if err := d.Resume(ep); err != nil {
					t.Fatalf("shards=%d resume: %v", shards, err)
				}
				if err := d.RunUntil(ep.Finished, 1<<40); err != nil {
					t.Fatalf("shards=%d replay: %v", shards, err)
				}
				if err := d.Run(1 << 40); err != nil {
					t.Fatalf("shards=%d drain: %v", shards, err)
				}
				return []observables{mid, observe(d)}, ep.Phases()
			}
			wantObs, wantPhases := run(1)
			for _, shards := range []int{2, 3, 4} {
				gotObs, gotPhases := run(shards)
				for i := range wantObs {
					if gotObs[i] != wantObs[i] {
						t.Errorf("shards=%d stage %d: %+v, want %+v", shards, i, gotObs[i], wantObs[i])
					}
				}
				if gotPhases != wantPhases {
					t.Errorf("shards=%d phases = %+v, want %+v", shards, gotPhases, wantPhases)
				}
			}
		})
	}
}
