package sim

import (
	"strings"
	"testing"

	"ctxback/internal/isa"
)

// launchSumAt places a sumKernel grid on the given SMs writing its
// output at byte address outBase — two tenants with different bases can
// share one device without clobbering each other.
func launchSumAt(t *testing.T, d *Device, loops, numWarps, outBase int, sms []int) *Launch {
	t.Helper()
	l, err := d.Launch(LaunchSpec{
		Prog: sumKernel(t), NumBlocks: numWarps, WarpsPerBlock: 1, SMFilter: sms,
		Setup: func(w *Warp) {
			w.SRegs[0] = uint64(loops)
			w.SRegs[1] = uint64(outBase)
			w.SRegs[2] = uint64(w.ID)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func checkSumAt(t *testing.T, d *Device, loops, numWarps, outBase int, tenant string) {
	t.Helper()
	want := uint32(loops * (loops + 1) / 2)
	for wid := 0; wid < numWarps; wid++ {
		for l := 0; l < isa.WarpSize; l++ {
			got := d.Mem.Load(outBase/4 + wid*isa.WarpSize + l)
			if got != want+uint32(l) {
				t.Fatalf("%s: warp %d lane %d: got %d, want %d", tenant, wid, l, got, want+uint32(l))
			}
		}
	}
}

// TestPreemptWhileResumingRejected pins the episode-lifecycle contract:
// an SM whose victims are mid-resume has no consistent cut point, so a
// new preemption signal must be rejected (the scheduler retries once the
// resume completes).
func TestPreemptWhileResumingRejected(t *testing.T) {
	d := mustNewDevice(TestConfig())
	l := launchSumAt(t, d, 400, 2, 4096, nil)
	if err := d.RunUntil(func() bool { return d.Now() > 300 }, 1_000_000); err != nil {
		t.Fatal(err)
	}
	ep, err := d.Preempt(0, naiveRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunUntil(ep.Saved, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if err := d.Resume(ep); err != nil {
		t.Fatal(err)
	}
	if ep.Finished() {
		t.Fatal("episode finished instantly; resume routines should take cycles")
	}
	if _, err := d.Preempt(0, naiveRuntime{}); err == nil {
		t.Error("preempt during resume must error")
	} else if !strings.Contains(err.Error(), "mid-resume") {
		t.Errorf("want a mid-resume rejection, got: %v", err)
	}
	if err := d.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if !l.Done() {
		t.Fatal("launch never completed")
	}
	checkSumAt(t, d, 400, 2, 4096, "tenant")
}

// TestBackToBackPreemptionsDifferentTenants drives the full multi-tenant
// episode chain on one SM: tenant A is preempted and parked, tenant B is
// launched onto the vacated SM while A's contexts are still being saved
// (exercising the save-complete redispatch), then B itself is preempted
// by a third arrival. Both parked episodes resume in turn and both
// tenants' outputs must verify.
func TestBackToBackPreemptionsDifferentTenants(t *testing.T) {
	const loops = 400
	d := mustNewDevice(TestConfig())
	// Each tenant fills every warp slot of SM 0 (MaxWarpsPerSM in
	// TestConfig): a newcomer physically cannot place until the victims'
	// contexts are saved and their slots released.
	warps := d.Cfg.MaxWarpsPerSM
	la := launchSumAt(t, d, loops, warps, 4096, []int{0})
	if err := d.RunUntil(func() bool { return d.Now() > 300 }, 1_000_000); err != nil {
		t.Fatal(err)
	}
	epA, err := d.Preempt(0, naiveRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	// Launch tenant B onto SM 0 while A is still draining/saving: its
	// blocks must place as soon as the last context store lands.
	lb := launchSumAt(t, d, loops, warps, 8192, []int{0})
	if len(lb.Warps) == 0 {
		t.Fatal("tenant B has no warps")
	}
	if lb.Warps[0].SM != nil {
		t.Fatal("tenant B placed before the SM was vacated")
	}
	// Resuming A while B's episode-to-be owner SM is still mid-save of A
	// is the normal already-active error; nothing to check here yet.
	if err := d.RunUntil(epA.Saved, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if !epA.Parked() {
		t.Fatal("episode A should be parked after save, before resume")
	}
	if lb.Warps[0].SM == nil {
		t.Fatal("tenant B not placed after the SM was vacated (save-complete redispatch missing)")
	}
	// Let B run a little, then preempt it — a second episode on the same
	// SM while A's episode is parked.
	if err := d.RunUntil(func() bool { return lb.Warps[0].DynCount > 20 }, 10_000_000); err != nil {
		t.Fatal(err)
	}
	epB, err := d.Preempt(0, naiveRuntime{})
	if err != nil {
		t.Fatalf("second preemption of a parked SM must be allowed: %v", err)
	}
	for _, w := range epB.Victims {
		if w.launch != lb {
			t.Fatalf("episode B's victims must be tenant B's warps, got warp %d of tenant A", w.ID)
		}
	}
	// While B is being saved, A cannot resume — the SM is busy.
	if err := d.Resume(epA); err == nil {
		t.Error("resume of parked episode while another episode is saving must error")
	}
	if err := d.RunUntil(epB.Saved, 10_000_000); err != nil {
		t.Fatal(err)
	}
	// Two parked episodes now share the SM's history. Resume them in
	// arrival order: A first, then B once A's resume completes.
	if err := d.Resume(epA); err != nil {
		t.Fatal(err)
	}
	if err := d.Resume(epB); err == nil {
		t.Error("resume while another episode's resume is in flight must error")
	}
	if err := d.RunUntil(epA.Finished, 50_000_000); err != nil {
		t.Fatal(err)
	}
	if err := d.RunUntil(la.Done, 100_000_000); err != nil {
		t.Fatal(err)
	}
	if err := d.Resume(epB); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if !la.Done() || !lb.Done() {
		t.Fatalf("tenants incomplete: A done=%v B done=%v", la.Done(), lb.Done())
	}
	checkSumAt(t, d, loops, warps, 4096, "tenant A")
	checkSumAt(t, d, loops, warps, 8192, "tenant B")
}

// TestPlacementProbesAllocateNothing: the scheduler probes CanHostBlock,
// CanDisplace and CanResume at every decision, so the footprint tally
// behind them allocates nothing, with LDS blocks counted too.
func TestPlacementProbesAllocateNothing(t *testing.T) {
	b := isa.NewBuilder("ldsloop", 6, 18, 256)
	b.Label("loop")
	b.I(isa.SSub, isa.R(isa.S(0)), isa.R(isa.S(0)), isa.Imm(1))
	b.I(isa.SCmpGt, isa.R(isa.S(0)), isa.Imm(0))
	b.Branch(isa.SCBranchSCC1, "loop")
	b.I(isa.SEndpgm)
	prog := mustProg(b)
	d := mustNewDevice(TestConfig())
	if _, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 2, WarpsPerBlock: 2, SMFilter: []int{0},
		Setup: func(w *Warp) { w.SRegs[0] = 400 }}); err != nil {
		t.Fatal(err)
	}
	if err := d.RunUntil(func() bool { return d.Now() > 100 }, 1_000_000); err != nil {
		t.Fatal(err)
	}
	ep, err := d.Preempt(0, naiveRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunUntil(ep.Saved, 10_000_000); err != nil {
		t.Fatal(err)
	}
	// A newcomer block lands beside the parked victims.
	newcomer, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 1, WarpsPerBlock: 2, SMFilter: []int{0},
		Setup: func(w *Warp) { w.SRegs[0] = 400 }})
	if err != nil {
		t.Fatal(err)
	}
	probe := func() {
		d.CanHostBlock(0, prog, 2)
		d.CanDisplace(0, newcomer, prog, 2)
		d.CanResume(ep)
	}
	if n := testing.AllocsPerRun(100, probe); n != 0 {
		t.Errorf("placement probes allocate %v times per call", n)
	}
	if !d.CanResume(ep) {
		t.Error("4 parked warps must fit back beside a 2-warp newcomer on an 8-slot SM")
	}
}
