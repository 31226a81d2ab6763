package sim

import (
	"testing"

	"ctxback/internal/isa"
)

func TestAdvanceTo(t *testing.T) {
	d := mustNewDevice(TestConfig())
	d.AdvanceTo(1000)
	if d.Now() != 1000 || d.Stats.Cycles != 1000 {
		t.Errorf("Now = %d, Stats.Cycles = %d", d.Now(), d.Stats.Cycles)
	}
	d.AdvanceTo(500) // never goes backwards
	if d.Now() != 1000 {
		t.Errorf("AdvanceTo went backwards: %d", d.Now())
	}
}

// The context path must be far slower than the main bus: a context save
// of N bytes takes ~N/CtxBytesPerCycle while a kernel store of the same
// size rides the fast bus.
func TestContextPathSlowerThanBus(t *testing.T) {
	cfg := TestConfig()
	d := mustNewDevice(cfg)
	busDone := d.accessGlobal(0, 4096, false, false)
	d2 := mustNewDevice(cfg)
	ctxDone := d2.accessGlobal(0, 4096, true, false)
	if ctxDone <= busDone {
		t.Errorf("context path (%d) must be slower than the bus (%d)", ctxDone, busDone)
	}
	wantMin := int64(float64(4096)/cfg.CtxBytesPerCycle) + int64(cfg.MemLatency)
	if ctxDone < wantMin {
		t.Errorf("context save of 4 KB done at %d, want >= %d", ctxDone, wantMin)
	}
}

// Restores ride the context path faster than saves (paper: resume is
// shorter than preemption).
func TestContextRestoreFasterThanSave(t *testing.T) {
	cfg := TestConfig()
	save := mustNewDevice(cfg).accessGlobal(0, 1<<16, true, false)
	load := mustNewDevice(cfg).accessGlobal(0, 1<<16, true, true)
	if load >= save {
		t.Errorf("restore (%d) must be faster than save (%d)", load, save)
	}
}

// Context traffic also occupies the shared bus, so heavy kernel traffic
// slows a context switch (the paper's contention observation).
func TestContextPathContention(t *testing.T) {
	cfg := TestConfig()
	quiet := mustNewDevice(cfg)
	quietDone := quiet.accessGlobal(0, 1024, true, false)

	busy := mustNewDevice(cfg)
	// Saturate the bus first.
	for i := 0; i < 64; i++ {
		busy.accessGlobal(0, 1<<16, false, false)
	}
	busyDone := busy.accessGlobal(0, 1024, true, false)
	if busyDone <= quietDone {
		t.Errorf("contended switch (%d) must be slower than quiet (%d)", busyDone, quietDone)
	}
}

func TestPreemptLatencyScalesWithContext(t *testing.T) {
	// Two kernels differing only in register footprint: the bigger
	// context must take proportionally longer to save under BASELINE
	// semantics (naiveRuntime saves every register).
	mk := func(nregs int) *isa.Program {
		b := isa.NewBuilder("ctx", nregs, 16, 0)
		b.I(isa.SMov, isa.R(isa.S(0)), isa.Imm(5000))
		b.Label("loop")
		b.I(isa.VAdd, isa.R(isa.V(0)), isa.R(isa.V(0)), isa.Imm(1))
		b.I(isa.SSub, isa.R(isa.S(0)), isa.R(isa.S(0)), isa.Imm(1))
		b.I(isa.SCmpGt, isa.R(isa.S(0)), isa.Imm(0))
		b.Branch(isa.SCBranchSCC1, "loop")
		b.I(isa.SEndpgm)
		return mustProg(b)
	}
	measure := func(nregs int) int64 {
		d := mustNewDevice(TestConfig())
		if _, err := d.Launch(LaunchSpec{Prog: mk(nregs), NumBlocks: 1, WarpsPerBlock: 1}); err != nil {
			t.Fatal(err)
		}
		if err := d.RunUntil(func() bool { return d.Now() > 100 }, 1<<30); err != nil {
			t.Fatal(err)
		}
		ep, err := d.Preempt(0, naiveRuntime{})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.RunUntil(ep.Saved, 1<<30); err != nil {
			t.Fatal(err)
		}
		return ep.PreemptLatencyCycles()
	}
	small, big := measure(8), measure(32)
	if big < small*2 {
		t.Errorf("32-reg context latency (%d) should be well above 8-reg (%d)", big, small)
	}
}

func TestEpisodeSavedBytesMatchContext(t *testing.T) {
	prog := sumKernelForBytes(t)
	d := mustNewDevice(TestConfig())
	if _, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 1, WarpsPerBlock: 1, Setup: func(w *Warp) {
		w.SRegs[0] = 500
	}}); err != nil {
		t.Fatal(err)
	}
	if err := d.RunUntil(func() bool { return d.Now() > 200 }, 1<<30); err != nil {
		t.Fatal(err)
	}
	ep, err := d.Preempt(0, naiveRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunUntil(ep.Saved, 1<<30); err != nil {
		t.Fatal(err)
	}
	// naiveRuntime saves the declared registers + exec/vcc/scc + pc.
	want := int64(prog.NumVRegs*4*isa.WarpSize + prog.NumSRegs*4 + 8 + 8 + 4 + 8)
	if got := ep.SavedBytes(); got != want {
		t.Errorf("SavedBytes = %d, want %d", got, want)
	}
}

func sumKernelForBytes(t *testing.T) *isa.Program {
	t.Helper()
	b := isa.NewBuilder("bytes", 6, 18, 0)
	b.Label("loop")
	b.I(isa.VAdd, isa.R(isa.V(1)), isa.R(isa.V(1)), isa.Imm(3))
	b.I(isa.SSub, isa.R(isa.S(0)), isa.R(isa.S(0)), isa.Imm(1))
	b.I(isa.SCmpGt, isa.R(isa.S(0)), isa.Imm(0))
	b.Branch(isa.SCBranchSCC1, "loop")
	b.I(isa.SEndpgm)
	return mustProg(b)
}
