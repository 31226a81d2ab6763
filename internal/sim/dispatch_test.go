package sim

import (
	"testing"
)

// TestDispatchSwappedOutLaunch pins the block-dispatcher suspension of
// a preempted launch: a launch whose warps sit in saved contexts must
// not place pending blocks, no matter how much headroom the SM has.
// Growing a swapped-out grid puts fresh live warps on an SM another
// tenant owns, and the next preemption sweep there folds two launches
// into one episode — which wedges the per-job scheduler above forever.
// Regression for the serve-mode livelock found by the 100k-job churn.
func TestDispatchSwappedOutLaunch(t *testing.T) {
	prog := mustAsm(t, `
.kernel grow
.vregs 2
.sregs 4
  v_mov v0, 1
  s_endpgm
`)
	cfg := TestConfig()
	cfg.NumSMs = 1 // one 8-warp SM: A's block + one of B's two blocks fill it
	d := mustNewDevice(cfg)

	a, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 1, WarpsPerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 2, WarpsPerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	if b.nextBlock != 1 {
		t.Fatalf("launch B placed %d blocks at launch, want 1 (SM full)", b.nextBlock)
	}

	// Swap out B's resident block. The freed warp slots would fit B's
	// pending block — but a swapped-out launch must not grow.
	for _, w := range b.blocks[0].warps {
		w.State = WarpPreempted
	}
	d.redispatch()
	if b.nextBlock != 1 {
		t.Fatalf("swapped-out launch grew: %d blocks placed, want 1", b.nextBlock)
	}

	// Control: bring B's warps back and retire A's block the way block
	// completion does (warps done and removed from the SM). Now the
	// same redispatch must place the pending block — proving the
	// swapped-out bar, not some other constraint, blocked it above.
	for _, w := range b.blocks[0].warps {
		w.State = WarpReady
	}
	sm := d.SMs[0]
	kept := sm.Warps[:0]
	for _, w := range sm.Warps {
		if w.launch == a {
			w.State = WarpDone
		} else {
			kept = append(kept, w)
		}
	}
	sm.Warps = kept
	d.redispatch()
	if b.nextBlock != 2 {
		t.Fatalf("resumed launch did not grow: %d blocks placed, want 2", b.nextBlock)
	}
}

// TestDispatchWaitingLaunchOnFreedSM pins that a block retiring frees
// its slots for every launch, not just its own: a launch that placed
// no block because another launch filled the SM must be placed when
// that launch's blocks complete.
func TestDispatchWaitingLaunchOnFreedSM(t *testing.T) {
	prog := mustAsm(t, `
.kernel grow
.vregs 2
.sregs 4
  v_mov v0, 1
  s_endpgm
`)
	cfg := TestConfig()
	cfg.NumSMs = 1
	d := mustNewDevice(cfg)

	full, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 2, WarpsPerBlock: cfg.MaxWarpsPerSM / 2})
	if err != nil {
		t.Fatal(err)
	}
	waiting, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 1, WarpsPerBlock: 1})
	if err != nil {
		t.Fatal(err)
	}
	if full.nextBlock != 2 || waiting.nextBlock != 0 {
		t.Fatalf("placed %d and %d blocks at launch, want 2 and 0 (SM full)", full.nextBlock, waiting.nextBlock)
	}
	if err := d.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if !full.Done() || !waiting.Done() {
		t.Fatalf("launches done: %v and %v, want both", full.Done(), waiting.Done())
	}
}
