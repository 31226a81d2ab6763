package sim

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"ctxback/internal/isa"
)

// stateObservables is the cross-restore comparison set: the clock and
// every DeviceStats counter. Device.migrations is deliberately absent —
// it is ready-queue cost accounting, reset by a restore (the queue is
// rebuilt), and feeds no simulation result.
type stateObservables struct {
	Now   int64
	Stats DeviceStats
}

func observeState(d *Device) stateObservables {
	return stateObservables{Now: d.now, Stats: d.Stats}
}

// cloneViaState round-trips d through ExportState/ImportState onto a
// fresh device and returns the imported device plus its state index.
// It also checks the contract pieces that every round trip must honor:
// repeat-export determinism and observable preservation.
func cloneViaState(t *testing.T, d *Device, rt Runtime, progs []*isa.Program) (*Device, *StateIndex) {
	t.Helper()
	st, _ := d.ExportState()
	st2, _ := d.ExportState()
	if !reflect.DeepEqual(st, st2) {
		t.Fatal("two exports of the same device differ")
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("exported state fails invariants: %v", err)
	}
	fresh := mustNewDevice(d.Cfg)
	idx, err := fresh.ImportState(st, rt, progs)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if got, want := observeState(fresh), observeState(d); got != want {
		t.Fatalf("import perturbed observables: %+v, want %+v", got, want)
	}
	return fresh, idx
}

// stateEpisodeRun drives the oversubscribed barrier workload through a
// full preemption episode, optionally swapping the device for an
// export/import clone at the named cut point. Cuts cover every
// mid-flight shape the snapshot layer must survive: a pending signal
// with barrier-parked victims just released, warps inside their
// preemption routines, a parked (fully saved) episode, and warps inside
// their resume routines.
func stateEpisodeRun(t *testing.T, cut string) ([]stateObservables, Phases, *Device) {
	t.Helper()
	const signal = 1337
	d := oversubscribedDevice(t, 40)
	prog := d.launches[0].Spec.Prog
	progs := []*isa.Program{prog}
	rt := naiveRuntime{}

	var obs []stateObservables
	var ep *Episode
	maybeClone := func(at string) {
		if cut != at {
			return
		}
		clone, idx := cloneViaState(t, d, rt, progs)
		d = clone
		if ep != nil {
			if len(idx.Episodes) == 0 {
				t.Fatalf("cut %q: episode lost in round trip", at)
			}
			ep = idx.Episodes[0]
		}
	}

	if err := d.RunToCycle(signal, 1<<40); err != nil {
		t.Fatalf("to-signal: %v", err)
	}
	maybeClone("at-signal")
	obs = append(obs, observeState(d))

	var err error
	ep, err = d.Preempt(0, rt)
	if err != nil {
		t.Fatalf("preempt: %v", err)
	}
	maybeClone("pending")
	// Step partway into the save so some victims sit mid preemption
	// routine at the cut.
	if err := d.RunToCycle(d.now+60, 1<<40); err != nil {
		t.Fatalf("mid-save run: %v", err)
	}
	maybeClone("mid-save")
	if err := d.RunUntil(ep.Saved, 1<<40); err != nil {
		t.Fatalf("save: %v", err)
	}
	maybeClone("parked")
	obs = append(obs, observeState(d))

	if err := d.Resume(ep); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := d.RunToCycle(d.now+60, 1<<40); err != nil {
		t.Fatalf("mid-resume run: %v", err)
	}
	maybeClone("mid-resume")
	if err := d.RunUntil(ep.Finished, 1<<40); err != nil {
		t.Fatalf("replay: %v", err)
	}
	obs = append(obs, observeState(d))

	if err := d.Run(1 << 40); err != nil {
		t.Fatalf("drain: %v", err)
	}
	obs = append(obs, observeState(d))
	return obs, ep.Phases(), d
}

// TestStateRoundTripCycleExact proves a restored device continues
// cycle-exactly: runs cut at every episode shape produce the same
// boundary observables, phase decomposition, and final memory as the
// undisturbed run.
func TestStateRoundTripCycleExact(t *testing.T) {
	wantObs, wantPhases, wantDev := stateEpisodeRun(t, "none")
	for _, cut := range []string{"at-signal", "pending", "mid-save", "parked", "mid-resume"} {
		gotObs, gotPhases, gotDev := stateEpisodeRun(t, cut)
		for i := range wantObs {
			if gotObs[i] != wantObs[i] {
				t.Errorf("cut=%s stage %d: %+v, want %+v", cut, i, gotObs[i], wantObs[i])
			}
		}
		if gotPhases != wantPhases {
			t.Errorf("cut=%s phases = %+v, want %+v", cut, gotPhases, wantPhases)
		}
		if i := gotDev.Mem.Diff(wantDev.Mem); i >= 0 {
			t.Fatalf("cut=%s: Mem[%d] = %#x, want %#x", cut, i, gotDev.Mem.Load(i), wantDev.Mem.Load(i))
		}
	}
}

// TestStateRoundTripBarrierParked pins the barrier-parked-victim shape
// explicitly: the cut lands while a pending episode holds victims that
// were rewound off a barrier, and the restored run still converges.
func TestStateRoundTripBarrierParked(t *testing.T) {
	d := oversubscribedDevice(t, 40)
	prog := d.launches[0].Spec.Prog
	// Let fast warps park at the first barrier.
	if err := d.RunToCycle(400, 1<<40); err != nil {
		t.Fatal(err)
	}
	ep, err := d.Preempt(0, naiveRuntime{})
	if err != nil {
		t.Fatal(err)
	}
	clone, idx := cloneViaState(t, d, naiveRuntime{}, []*isa.Program{prog})
	ep2 := idx.Episodes[0]
	if len(ep2.Victims) != len(ep.Victims) {
		t.Fatalf("victims lost: %d vs %d", len(ep2.Victims), len(ep.Victims))
	}
	finish := func(d *Device, ep *Episode) *Device {
		if err := d.RunUntil(ep.Saved, 1<<40); err != nil {
			t.Fatal(err)
		}
		if err := d.Resume(ep); err != nil {
			t.Fatal(err)
		}
		if err := d.Run(1 << 40); err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := finish(d, ep), finish(clone, ep2)
	if observeState(a) != observeState(b) {
		t.Fatalf("observables diverged: %+v vs %+v", observeState(a), observeState(b))
	}
	if i := a.Mem.Diff(b.Mem); i >= 0 {
		t.Fatalf("Mem[%d] diverged", i)
	}
}

// TestExportIsDeepCopy: running the source device to completion must not
// mutate a previously exported state.
func TestExportIsDeepCopy(t *testing.T) {
	d := oversubscribedDevice(t, 10)
	if err := d.RunToCycle(500, 1<<40); err != nil {
		t.Fatal(err)
	}
	st, _ := d.ExportState()
	snap, _ := d.ExportState()
	if err := d.Run(1 << 40); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, snap) {
		t.Fatal("running the source device mutated an exported state")
	}
}

// TestConcurrentImportsOfOneState imports one exported state onto eight
// devices at once and runs each to completion beside the source device,
// so all of them write pages they share copy-on-write. Each must match
// the uninterrupted run in cycles, counters and memory. Under -race it
// also shows that importing only reads the state.
func TestConcurrentImportsOfOneState(t *testing.T) {
	// The kernel stores its results at its end; words already in the
	// output page make that page shared storage at the export.
	device := func() *Device {
		d := oversubscribedDevice(t, 40)
		d.Mem.Write(1<<16, []uint32{7, 7, 7, 7})
		return d
	}
	want := device()
	if err := want.Run(1 << 40); err != nil {
		t.Fatal(err)
	}
	d := device()
	if err := d.RunToCycle(want.Now()/2, 1<<40); err != nil {
		t.Fatal(err)
	}
	st, _ := d.ExportState()
	if owned(st.Mem) == 0 {
		t.Fatal("the state holds no page with storage, so nothing is shared")
	}
	progs := []*isa.Program{d.launches[0].Spec.Prog}
	devs := make([]*Device, 8)
	errs := make([]error, len(devs))
	var wg sync.WaitGroup
	for i := range devs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev, err := NewDevice(d.Cfg)
			if err == nil {
				_, err = dev.ImportState(st, nil, progs)
			}
			if err == nil {
				err = dev.Run(1 << 40)
			}
			devs[i], errs[i] = dev, err
		}()
	}
	if err := d.Run(1 << 40); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
	}
	for i, dev := range append(devs, d) {
		if got, w := observeState(dev), observeState(want); got != w {
			t.Errorf("device %d: %+v, want %+v", i, got, w)
		}
		if j := dev.Mem.Diff(want.Mem); j >= 0 {
			t.Errorf("device %d: Mem[%d] = %#x, want %#x", i, j, dev.Mem.Load(j), want.Mem.Load(j))
		}
	}
}

// TestImportRejects exercises every clean-refusal path: non-fresh
// targets, config mismatches, wrong programs, and invariant-violating
// states. Each must error without panicking.
func TestImportRejects(t *testing.T) {
	d := oversubscribedDevice(t, 10)
	if err := d.RunToCycle(300, 1<<40); err != nil {
		t.Fatal(err)
	}
	st, _ := d.ExportState()
	prog := d.launches[0].Spec.Prog
	progs := []*isa.Program{prog}

	expectErr := func(name string, target *Device, st *DeviceState, progs []*isa.Program, frag string) {
		t.Helper()
		_, err := target.ImportState(st, naiveRuntime{}, progs)
		if err == nil {
			t.Fatalf("%s: import unexpectedly succeeded", name)
		}
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("%s: error %q does not mention %q", name, err, frag)
		}
	}

	// Non-fresh target: the source device itself.
	expectErr("non-fresh", d, st, progs, "fresh device")

	// Config mismatch (the -sms case): fewer SMs than the snapshot.
	small := DefaultConfig()
	small.NumSMs = 2
	small.GlobalMemBytes = 1 << 20
	expectErr("config-mismatch", mustNewDevice(small), st, progs, "config mismatch")

	// Wrong program for the fingerprint.
	other := sumKernel(t)
	expectErr("prog-mismatch", mustNewDevice(d.Cfg), st, []*isa.Program{other}, "fingerprint")

	// Wrong program count.
	expectErr("prog-count", mustNewDevice(d.Cfg), st, nil, "programs")

	// Invariant violation: tampered done counter.
	bad, _ := d.ExportState()
	bad.Launches[0].DoneWarps++
	expectErr("invariants", mustNewDevice(d.Cfg), bad, progs, "state invalid")

	// Invariant violation: a memory image of the wrong size, or none.
	bad, _ = d.ExportState()
	bad.Mem = NewMemory(d.Mem.Words() - 1)
	expectErr("mem-size", mustNewDevice(d.Cfg), bad, progs, "memory image has")
	bad.Mem = nil
	expectErr("mem-missing", mustNewDevice(d.Cfg), bad, progs, "no memory image")

	// A valid import still works after all the refusals above (they
	// never corrupted shared state).
	if _, err := mustNewDevice(d.Cfg).ImportState(st, naiveRuntime{}, progs); err != nil {
		t.Fatalf("valid import failed after refusals: %v", err)
	}
}

// barrierLoopProgram is a barrier-heavy kernel: two block-wide barriers
// per loop iteration, with LDS traffic crossing each, so snapshots catch
// warps parked at barriers.
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

// oversubscribedDevice launches more barrier-kernel blocks than fit, so
// blocks wait for dispatch deep into the run and every endpgm triggers
// a dispatch: a snapshot must carry the undispatched blocks.
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
