package sched

import (
	"fmt"
	"strings"
	"testing"

	"ctxback/internal/preempt"
	"ctxback/internal/trace"
)

// The failover tests drive periodic checkpoints and a device kill
// through Serve's barrier loop on a small uniform trace. Admission
// control and the hypervisor stay off unless a test turns them on, so
// every arrival is admitted and the only cross-device moves are the
// failover events under test.

func fleetTrace(t *testing.T, seed int64, jobs int) []Job {
	t.Helper()
	tr, err := GenTrace(TraceConfig{Seed: seed, NumJobs: jobs, NumTenants: 3, MeanGapCycles: 3_000})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// fleetConfig is a two-device serve run with the state witness on.
func fleetConfig(every int64, kill *DeviceKill) ServeConfig {
	return ServeConfig{Sched: testSchedConfig(), Devices: 2, CheckpointEvery: every,
		Kill: kill, StateHash: true}
}

func runFleet(t *testing.T, kind preempt.Kind, jobs []Job, cfg ServeConfig) *ServeResult {
	t.Helper()
	sv, err := newServer(cfg, kind, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.run(); err != nil {
		t.Fatal(err)
	}
	checkRetiredReleased(t, sv)
	res := sv.result()
	checkDeliveredOnce(t, res)
	checkImagesSparse(t, res)
	if res.Completed != len(jobs) {
		t.Fatalf("fleet completed %d jobs, want %d", res.Completed, len(jobs))
	}
	return res
}

// checkImagesSparse requires every periodic checkpoint image of the
// 64 MiB fleet devices to stay under 8 MiB: the image carries the blocks
// the jobs wrote, not the device's capacity.
func checkImagesSparse(t *testing.T, res *ServeResult) {
	t.Helper()
	for _, e := range events(res, "checkpoint") {
		var epoch, n int
		if _, err := fmt.Sscanf(e.Detail, "epoch %d, %d bytes", &epoch, &n); err != nil {
			t.Fatalf("checkpoint detail %q: %v", e.Detail, err)
		}
		if n >= 8<<20 {
			t.Errorf("cycle %d: device %d checkpoint of %d bytes, want under 8 MiB", e.Cycle, e.Device, n)
		}
	}
}

// checkRetiredReleased requires one retired device per kill and
// migration, each of which has dropped its scheduler, with the
// simulated device it drives, and its checkpoint. It also pins the
// bounded table of a drained run: every alive device's scheduler holds
// no job and has recorded no per-job event.
func checkRetiredReleased(t *testing.T, sv *server) {
	t.Helper()
	want := 0
	if sv.cfg.Kill != nil {
		want++
	}
	if sv.hyper != nil {
		want += sv.hyper.migrations
	}
	retired := 0
	for _, dev := range sv.devices {
		if !dev.retired {
			if len(dev.s.jobs) != 0 || len(dev.s.events) != 0 {
				t.Errorf("drained device %d still holds %d jobs and %d events",
					dev.id, len(dev.s.jobs), len(dev.s.events))
			}
			continue
		}
		retired++
		if dev.s != nil || dev.ckpt != nil {
			t.Errorf("retired device %d still holds its scheduler or checkpoint", dev.id)
		}
	}
	if retired != want {
		t.Errorf("%d devices retired, want %d", retired, want)
	}
}

// checkDeliveredOnce pins conservation under failover: arrived ==
// admitted + shed, completed == admitted, and the state witness names
// every completed job exactly once.
func checkDeliveredOnce(t *testing.T, res *ServeResult) {
	t.Helper()
	if res.Admitted+res.Shed != res.Arrived {
		t.Fatalf("admitted(%d)+shed(%d) != arrived(%d)", res.Admitted, res.Shed, res.Arrived)
	}
	if res.Completed != res.Admitted {
		t.Fatalf("completed(%d) != admitted(%d)", res.Completed, res.Admitted)
	}
	seen := make(map[int]bool)
	for _, line := range strings.SplitAfter(res.StateHash, "\n") {
		if line == "" {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(line, "job %d", &id); err != nil {
			t.Fatalf("witness line %q: %v", line, err)
		}
		if seen[id] {
			t.Fatalf("job %d delivered twice:\n%s", id, res.StateHash)
		}
		seen[id] = true
	}
	if len(seen) != res.Completed {
		t.Fatalf("witness names %d jobs, %d completed", len(seen), res.Completed)
	}
}

// events returns the decision-log entries whose kind starts with prefix.
func events(res *ServeResult, prefix string) []ServeEvent {
	var out []ServeEvent
	for _, e := range res.Events {
		if strings.HasPrefix(e.What, prefix) {
			out = append(out, e)
		}
	}
	return out
}

// detailField returns the value of key=value in an event detail.
func detailField(detail, key string) string {
	for _, f := range strings.Fields(detail) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return v
		}
	}
	return ""
}

func fullReport(res *ServeResult) string { return res.Render() + res.EventLog() + res.StateHash }

// TestFleetUndisturbedMatchesSingle checks the witness itself: with
// checkpoints on and no kill, a two-device serve run's per-job slab
// digests equal those of a single-device Run of the same trace, where
// every job owns a slab of one fresh device — a digest depends on the
// job alone, not on device, slab or schedule. Repeats are byte-identical.
func TestFleetUndisturbedMatchesSingle(t *testing.T) {
	jobs := fleetTrace(t, 31, 6)
	cfg := fleetConfig(50_000, nil)
	a := runFleet(t, preempt.CTXBack, jobs, cfg)
	if b := runFleet(t, preempt.CTXBack, jobs, cfg); fullReport(a) != fullReport(b) {
		t.Fatalf("identical runs differ:\n--- a\n%s--- b\n%s", fullReport(a), fullReport(b))
	}
	if len(events(a, "checkpoint")) == 0 {
		t.Fatal("no checkpoints taken on a 50k cadence")
	}

	sc := testSchedConfig()
	sc.SlabBytes = (sc.Dev.GlobalMemBytes - slabBase) / 8 // Serve's default slab
	sc.SlabBytes -= sc.SlabBytes % 4096
	s, all, err := newScheduler(sc, preempt.CTXBack, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.run(all); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for i, rj := range all { // (arrival, ID) order; job i owns slab i
		lo := (slabBase + i*sc.SlabBytes) / 4
		fmt.Fprintf(&want, "job %3d %-6s slab %016x\n", rj.job.ID, rj.job.Kernel,
			slabDigest(s.d.Mem, lo, sc.SlabBytes/4))
	}
	if a.StateHash != want.String() {
		t.Fatalf("fleet witness differs from the single-device run:\n--- fleet\n%s--- single\n%s",
			a.StateHash, want.String())
	}
}

// TestFleetCrashAtEveryBoundary kills each device at every checkpoint
// boundary, and once between two of them, and requires the killed run's
// final memory and verify state — the per-job slab digests, with Verify
// on throughout — to be byte-identical to the undisturbed run's. A
// mid-window kill rolls back to the previous checkpoint and replays.
func TestFleetCrashAtEveryBoundary(t *testing.T) {
	jobs := fleetTrace(t, 31, 6)
	const every = 40_000
	base := runFleet(t, preempt.CTXBack, jobs, fleetConfig(every, nil))
	var kills []int64
	for c := int64(every); c <= base.Makespan; c += every {
		kills = append(kills, c)
	}
	if len(kills) < 2 {
		t.Fatalf("makespan %d yields %d boundaries; need >= 2 for the sweep", base.Makespan, len(kills))
	}
	kills = append(kills, kills[0]+every/2)

	for _, at := range kills {
		for kd := 0; kd < 2; kd++ {
			res := runFleet(t, preempt.CTXBack, jobs, fleetConfig(every, &DeviceKill{Device: kd, Cycle: at}))
			if res.StateHash != base.StateHash {
				t.Fatalf("kill dev %d @ %d: final state diverged from undisturbed run:\n--- got\n%s--- want\n%s",
					kd, at, res.StateHash, base.StateHash)
			}
			if n := len(events(res, "kill")); n != 1 {
				t.Fatalf("kill dev %d @ %d: %d kill events", kd, at, n)
			}
			if n := len(events(res, "restore-")) + len(events(res, "replace")); n != 1 {
				t.Fatalf("kill dev %d @ %d: %d recovery events:\n%s", kd, at, n, res.EventLog())
			}
		}
	}
}

// TestFleetWarmVsColdRestore pins the warm-pool split: a warm restore
// skips the cold construction cycles but transfers the same image, and
// every job's final memory is byte-identical either way.
func TestFleetWarmVsColdRestore(t *testing.T) {
	jobs := fleetTrace(t, 47, 6)
	cfg := fleetConfig(40_000, &DeviceKill{Device: 0, Cycle: 80_000})
	cold := runFleet(t, preempt.CTXBack, jobs, cfg)
	cfg.WarmPool = 1
	warm := runFleet(t, preempt.CTXBack, jobs, cfg)

	ce, we := events(cold, "restore-cold"), events(warm, "restore-warm")
	if len(ce) != 1 || len(we) != 1 {
		t.Fatalf("want one cold and one warm restore:\n--- cold\n%s--- warm\n%s", cold.EventLog(), warm.EventLog())
	}
	if detailField(ce[0].Detail, "setup") == "0" {
		t.Error("cold restore charged no setup cycles")
	}
	if s := detailField(we[0].Detail, "setup"); s != "0" {
		t.Errorf("warm restore charged %s setup cycles, want 0", s)
	}
	if c, w := detailField(ce[0].Detail, "transfer"), detailField(we[0].Detail, "transfer"); c != w {
		t.Errorf("transfer cycles differ warm vs cold: %s vs %s", w, c)
	}
	if warm.StateHash != cold.StateHash {
		t.Fatalf("warm and cold restores diverged:\n--- warm\n%s--- cold\n%s", warm.StateHash, cold.StateHash)
	}
}

// TestFleetRerunPath covers the non-relocatable path: CKPT keeps
// per-warp state outside the device image, so a kill replaces the dead
// device with an empty one and every undelivered job re-enters
// admission and runs again from scratch. The final state must match the
// undisturbed run's.
func TestFleetRerunPath(t *testing.T) {
	jobs := fleetTrace(t, 31, 6)
	base := runFleet(t, preempt.Ckpt, jobs, fleetConfig(40_000, nil))
	res := runFleet(t, preempt.Ckpt, jobs, fleetConfig(40_000, &DeviceKill{Device: 1, Cycle: 80_000}))
	if res.StateHash != base.StateHash {
		t.Fatalf("requeue failover diverged from undisturbed run:\n--- got\n%s--- want\n%s", res.StateHash, base.StateHash)
	}
	if len(events(res, "restore-")) != 0 {
		t.Error("non-relocatable kind restored from a checkpoint")
	}
	rep := events(res, "replace")
	if len(rep) != 1 || !strings.Contains(rep[0].Detail, "not relocatable") || detailField(rep[0].Detail, "requeue") == "0" {
		t.Fatalf("want one replacement that requeues the dead device's work:\n%s", res.EventLog())
	}
}

// TestFleetNoCheckpointFallsBackToRerun kills a device before any
// checkpoint exists: even a relocatable technique has nothing to
// restore, so the replacement starts empty and the dead device's jobs
// run again.
func TestFleetNoCheckpointFallsBackToRerun(t *testing.T) {
	jobs := fleetTrace(t, 31, 6)
	base := runFleet(t, preempt.CTXBack, jobs, fleetConfig(0, nil))
	res := runFleet(t, preempt.CTXBack, jobs, fleetConfig(0, &DeviceKill{Device: 0, Cycle: 10_000}))
	if res.StateHash != base.StateHash {
		t.Fatalf("checkpoint-less failover diverged:\n--- got\n%s--- want\n%s", res.StateHash, base.StateHash)
	}
	if n := len(events(res, "checkpoint")); n != 0 {
		t.Errorf("checkpointing disabled but %d checkpoints taken", n)
	}
	rep := events(res, "replace")
	if len(rep) != 1 || !strings.Contains(rep[0].Detail, "no checkpoint yet") {
		t.Fatalf("want one replacement without a checkpoint:\n%s", res.EventLog())
	}
}

// TestFleetDeterministicAcrossWorkers: a killed run is byte-identical
// whether devices advance one at a time or on parallel workers.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	jobs := fleetTrace(t, 31, 6)
	run := func(workers int) string {
		cfg := fleetConfig(40_000, &DeviceKill{Device: 0, Cycle: 60_000})
		cfg.Workers = workers
		return fullReport(runFleet(t, preempt.CTXBack, jobs, cfg))
	}
	if ref, got := run(1), run(2); got != ref {
		t.Fatalf("workers=2 diverged:\n--- ref\n%s--- got\n%s", ref, got)
	}
}

// TestFleetConfigValidation covers the failover config error paths.
func TestFleetConfigValidation(t *testing.T) {
	jobs := fleetTrace(t, 31, 4)
	for i, cfg := range []ServeConfig{
		fleetConfig(0, &DeviceKill{Device: 2, Cycle: 1000}),  // kill id out of range
		fleetConfig(0, &DeviceKill{Device: -1, Cycle: 1000}), // negative kill id
		fleetConfig(0, &DeviceKill{Device: 0}),               // kill cycle unset
		fleetConfig(0, &DeviceKill{Device: 0, Cycle: -5}),    // negative kill cycle
		fleetConfig(-1, nil),                                 // negative cadence
	} {
		if _, err := Serve(cfg, preempt.CTXBack, jobs); err == nil {
			t.Errorf("case %d: invalid failover config accepted", i)
		}
	}
	if _, err := Serve(fleetConfig(0, nil), preempt.CTXBack, nil); err == nil {
		t.Error("empty trace accepted")
	}
}

// TestFleetDeliveredOnce pins the delivered-once rule under a kill:
// device 0 completes a job between its last checkpoint and the kill,
// so the restore replays that job (serve.replays counts it). Still
// arrived == admitted + shed, completed == admitted, and no job counts
// twice.
func TestFleetDeliveredOnce(t *testing.T) {
	jobs := fleetTrace(t, 31, 6)
	cfg := fleetConfig(40_000, &DeviceKill{Device: 0, Cycle: 76_000})
	m := trace.NewRegistry()
	cfg.Sched.Metrics = m
	res := runFleet(t, preempt.CTXBack, jobs, cfg)
	if m.Counter("serve.replays").Value() == 0 {
		t.Fatalf("the kill replayed no delivered job, leaving the rule untested:\n%s", res.EventLog())
	}
}
