package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
)

// epochRun is one device being driven in lockstep with its twin at a
// different shard count: the same workload, technique, and episode
// orchestration. Unlike the ready-queue diff (which traces every
// instruction), the sharded engine cannot carry a tracer — tracing
// forces the serial engine — so the runs are compared at every phase
// boundary on the full observable surface: clock, device stats, episode
// phase decomposition, memory image, and verified output.
type epochRun struct {
	wl     *kernels.Workload
	d      *sim.Device
	tech   preempt.Technique
	launch *sim.Launch
	ep     *sim.Episode
}

func newEpochRun(t *testing.T, cfg sim.Config, abbrev string, kind preempt.Kind, shards int) *epochRun {
	t.Helper()
	wl, err := kernels.ByAbbrev(abbrev, kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	d, err := sim.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.SetShards(shards)
	tech, err := preempt.New(kind, wl.Prog)
	if err != nil {
		t.Skipf("technique unavailable: %v", err)
	}
	d.AttachRuntime(tech)
	launch, err := wl.Launch(d)
	if err != nil {
		t.Fatal(err)
	}
	return &epochRun{wl: wl, d: d, tech: tech, launch: launch}
}

// checkAligned asserts the two devices agree on every cheap observable
// at a phase boundary.
func checkAligned(t *testing.T, phase string, ser, shr *epochRun) {
	t.Helper()
	if a, b := ser.d.Now(), shr.d.Now(); a != b {
		t.Fatalf("%s: clocks diverged: serial=%d sharded=%d", phase, a, b)
	}
	if ser.d.Stats != shr.d.Stats {
		t.Fatalf("%s: device stats diverged:\n  serial:  %+v\n  sharded: %+v", phase, ser.d.Stats, shr.d.Stats)
	}
	if a, b := ser.launch.Done(), shr.launch.Done(); a != b {
		t.Fatalf("%s: launch completion diverged: serial=%v sharded=%v", phase, a, b)
	}
}

// TestShardedMatchesSerialEpisodes pins the epoch-parallel engine to the
// serial engine across the full evaluation matrix: every Table I kernel
// under every preemption technique runs a complete preemption episode
// (signal at a seeded-random cycle, save, resume, replay, completion) on
// two devices differing only in shard count, and the clock, device
// stats, episode phase split, preemption latency, saved bytes, final
// memory image, and verified output must match exactly at every phase
// boundary.
func TestShardedMatchesSerialEpisodes(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short mode")
	}
	cfg := sim.TestConfig()
	cfg.NumSMs = 4 // room for real multi-shard phases
	wls, err := kernels.All(kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20260808))
	for _, wl := range wls {
		for _, kind := range preempt.ExtendedKinds() {
			signal := 1 + rng.Int63n(3000)
			t.Run(fmt.Sprintf("%s/%s", wl.Abbrev, kind), func(t *testing.T) {
				diffShardedEpisode(t, cfg, wl.Abbrev, kind, signal)
			})
		}
	}
}

func diffShardedEpisode(t *testing.T, cfg sim.Config, abbrev string, kind preempt.Kind, signal int64) {
	t.Helper()
	const maxCycles = 1 << 40
	ser := newEpochRun(t, cfg, abbrev, kind, 1)
	shr := newEpochRun(t, cfg, abbrev, kind, 4)

	// Phase 1: run to the preemption signal.
	for _, r := range []*epochRun{ser, shr} {
		if err := r.d.RunToCycle(signal, maxCycles); err != nil {
			t.Fatalf("to-signal (%d shards): %v", r.d.Shards(), err)
		}
	}
	checkAligned(t, "to-signal", ser, shr)

	if !ser.launch.Done() {
		// Phase 2: preempt SM 0 on both; the drained race must resolve
		// identically.
		epS, errS := ser.d.Preempt(0, ser.tech)
		epP, errP := shr.d.Preempt(0, shr.tech)
		if (errS == nil) != (errP == nil) ||
			(errS != nil && errors.Is(errS, sim.ErrDrained) != errors.Is(errP, sim.ErrDrained)) {
			t.Fatalf("Preempt outcome diverged: serial=%v sharded=%v", errS, errP)
		}
		if errS == nil {
			ser.ep, shr.ep = epS, epP
			if a, b := len(epS.Victims), len(epP.Victims); a != b {
				t.Fatalf("victim counts diverged: serial=%d sharded=%d", a, b)
			}
			for _, r := range []*epochRun{ser, shr} {
				if err := r.d.RunUntil(r.ep.Saved, maxCycles); err != nil {
					t.Fatalf("save (%d shards): %v", r.d.Shards(), err)
				}
			}
			checkAligned(t, "save", ser, shr)
			for _, r := range []*epochRun{ser, shr} {
				if err := r.d.Resume(r.ep); err != nil {
					t.Fatalf("Resume (%d shards): %v", r.d.Shards(), err)
				}
				if err := r.d.RunUntil(r.ep.Finished, maxCycles); err != nil {
					t.Fatalf("resume (%d shards): %v", r.d.Shards(), err)
				}
			}
			checkAligned(t, "resume", ser, shr)
			if a, b := epS.Phases(), epP.Phases(); a != b {
				t.Fatalf("episode phases diverged:\n  serial:  %+v\n  sharded: %+v", a, b)
			}
			if a, b := epS.PreemptLatencyCycles(), epP.PreemptLatencyCycles(); a != b {
				t.Fatalf("preempt latency diverged: serial=%d sharded=%d", a, b)
			}
			if a, b := epS.SavedBytes(), epP.SavedBytes(); a != b {
				t.Fatalf("saved bytes diverged: serial=%d sharded=%d", a, b)
			}
		}
	}

	// Phase 3: run to completion.
	for _, r := range []*epochRun{ser, shr} {
		if err := r.d.Run(maxCycles); err != nil {
			t.Fatalf("completion (%d shards): %v", r.d.Shards(), err)
		}
	}
	checkAligned(t, "completion", ser, shr)

	// Final state: identical memory image and verified output.
	if i := ser.d.Mem.Diff(shr.d.Mem); i >= 0 {
		t.Fatalf("device memory diverged at word %d: serial=%#x sharded=%#x", i, ser.d.Mem.Load(i), shr.d.Mem.Load(i))
	}
	if err := ser.wl.Verify(ser.d); err != nil {
		t.Fatalf("serial output failed verification: %v", err)
	}
	if err := shr.wl.Verify(shr.d); err != nil {
		t.Fatalf("sharded output failed verification: %v", err)
	}
}
