package sched

import (
	"strings"
	"testing"

	"ctxback/internal/preempt"
)

func serveTestConfig(workers int) ServeConfig {
	return ServeConfig{
		Sched:          testSchedConfig(),
		Devices:        2,
		Workers:        workers,
		AdmitEvery:     500,
		SlabsPerDevice: 6,
		ReportEvery:    4000,
		Admit:          AdmitConfig{TokensPer100k: 400, Burst: 4, MaxQueue: 8},
		Hypervisor:     HypervisorConfig{Every: 2000, MigrateThreshold: 4},
	}
}

func serveTestTrace(t *testing.T) []Job {
	t.Helper()
	jobs, err := GenTrace(TraceConfig{
		Seed: 11, NumJobs: 60, NumTenants: 3, MeanGapCycles: 150,
		Process: "poisson", BurstFraction: 0.34, BurstLen: 5,
	})
	if err != nil {
		t.Fatalf("GenTrace: %v", err)
	}
	return jobs
}

func runServe(t *testing.T, cfg ServeConfig) *ServeResult {
	t.Helper()
	res, err := Serve(cfg, preempt.CTXBack, serveTestTrace(t))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return res
}

// TestServeSmall runs a complete serving loop and checks the basic
// conservation laws of the front door.
func TestServeSmall(t *testing.T) {
	res := runServe(t, serveTestConfig(1))
	if res.Arrived == 0 || res.Completed == 0 {
		t.Fatalf("no work flowed: %+v", res)
	}
	if res.Admitted+res.Shed != res.Arrived {
		t.Fatalf("admitted(%d)+shed(%d) != arrived(%d)", res.Admitted, res.Shed, res.Arrived)
	}
	if res.Completed != res.Admitted {
		t.Fatalf("completed(%d) != admitted(%d): jobs lost", res.Completed, res.Admitted)
	}
	for _, slo := range res.Tenants {
		if slo.Completed > 0 && (slo.P50 <= 0 || slo.P99 < slo.P50) {
			t.Fatalf("tenant %d: bad percentiles %+v", slo.Tenant, slo)
		}
	}
	if res.Rearbitrations == 0 {
		t.Fatalf("hypervisor never re-arbitrated")
	}
}

// TestServeDeterministic pins byte-identical output across repeat runs
// and worker counts — the serving layer's core guarantee.
func TestServeDeterministic(t *testing.T) {
	base := runServe(t, serveTestConfig(1))
	ref := base.Render() + base.EventLog()
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"repeat", 1},
		{"workers4", 4},
	} {
		got := runServe(t, serveTestConfig(tc.workers))
		if s := got.Render() + got.EventLog(); s != ref {
			t.Errorf("%s: output diverged from the serial run\n--- ref\n%s\n--- got\n%s", tc.name, ref, s)
		}
	}
}

// TestServeMigration forces an imbalanced fleet and checks the
// hypervisor rebalances through a checkpoint/restore migration.
func TestServeMigration(t *testing.T) {
	cfg := serveTestConfig(1)
	cfg.Hypervisor.MigrateThreshold = 2
	cfg.WarmPool = 1
	sv, err := newServer(cfg, preempt.CTXBack, serveTestTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := sv.run(); err != nil {
		t.Fatal(err)
	}
	checkRetiredReleased(t, sv)
	res := sv.result()
	if res.Migrations == 0 {
		t.Fatalf("no migration despite threshold 2; events:\n%s", res.EventLog())
	}
	if !strings.Contains(res.EventLog(), "migrate") {
		t.Fatalf("migration missing from decision log:\n%s", res.EventLog())
	}
	if res.Completed != res.Admitted {
		t.Fatalf("completed(%d) != admitted(%d) after migration", res.Completed, res.Admitted)
	}
}

// TestServeShed pins that a tight front door sheds rather than queues
// without bound, and that shed jobs appear in the log.
func TestServeShed(t *testing.T) {
	cfg := serveTestConfig(1)
	cfg.Admit = AdmitConfig{TokensPer100k: 50, Burst: 1, MaxQueue: 2}
	res := runServe(t, cfg)
	if res.Shed == 0 {
		t.Fatalf("tight admission shed nothing: %+v", res)
	}
	if !strings.Contains(res.EventLog(), "shed") {
		t.Fatalf("shed decisions missing from log:\n%s", res.EventLog())
	}
	if res.Admitted+res.Shed != res.Arrived {
		t.Fatalf("conservation broken: %+v", res)
	}
}

// TestServeNoAdmission runs with admission control off: nothing sheds.
func TestServeNoAdmission(t *testing.T) {
	cfg := serveTestConfig(1)
	cfg.Admit = AdmitConfig{}
	cfg.Hypervisor = HypervisorConfig{}
	res := runServe(t, cfg)
	if res.Shed != 0 {
		t.Fatalf("admission off but %d jobs shed", res.Shed)
	}
	if res.Completed != res.Arrived {
		t.Fatalf("completed(%d) != arrived(%d)", res.Completed, res.Arrived)
	}
	if res.Rearbitrations != 0 || res.Migrations != 0 {
		t.Fatalf("hypervisor off but acted: %+v", res)
	}
}

// TestServeQuotaProgress wedges one tenant behind a 1-SM quota and
// checks the loop still terminates (quota stalls must not deadlock).
func TestServeQuotaProgress(t *testing.T) {
	cfg := serveTestConfig(1)
	cfg.Hypervisor = HypervisorConfig{Every: 1000, MigrateThreshold: -1, StarveWindows: 1}
	res := runServe(t, cfg)
	if res.Completed != res.Admitted {
		t.Fatalf("quota run lost jobs: completed=%d admitted=%d", res.Completed, res.Admitted)
	}
}

// TestServeLightKernelChurn is the regression run for two bugs only a
// high-churn serve loop exposed. With 2-iteration kernels a block's
// warps retire at slightly different times, so barrier-cadence
// preemptions regularly catch a block with one warp Done:
//
//  1. the LDS poison then wiped the Done peer's un-saved share of the
//     block's shared data (MV's x vector), corrupting resumed warps —
//     fixed by coverOrphanLDSShares widening the victims' coverage;
//  2. Done warps of partially-finished blocks keep their slots until
//     the block completes, so an SM can carry residue from several
//     parked tenants and the best parked victim may not physically fit
//     — fixed by the idle-SM search probing sim.CanResume before resuming.
//
// Verify is on: every completed job's output is checked on the device.
func TestServeLightKernelChurn(t *testing.T) {
	sc := testSchedConfig()
	sc.Params.ItersPerWarp = 2
	sc.Dev.NumSMs = 2
	jobs, err := GenTrace(TraceConfig{
		Seed: 7, NumTenants: 4, MeanGapCycles: 1666, MaxPriority: 3,
		Process: "poisson", BurstFraction: 0.25, DiurnalAmplitude: 0.3,
		DurationCycles: 1_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Serve(ServeConfig{Sched: sc, Devices: 2, Workers: 1, AdmitEvery: 2000},
		preempt.CTXBack, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Arrived {
		t.Fatalf("completed(%d) != arrived(%d)", res.Completed, res.Arrived)
	}
	if res.TotalPreemptions == 0 {
		t.Fatalf("no preemptions: the churn regression needs mid-kernel preempts")
	}
}
