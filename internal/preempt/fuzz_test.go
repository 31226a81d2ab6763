package preempt

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"ctxback/internal/faults"
	"ctxback/internal/gen"
	"ctxback/internal/isa"
	"ctxback/internal/sim"
)

// genLoopProgram builds a random kernel with a loop: per iteration a
// burst of integer ALU with heavy register reuse, a load, and a store of
// a rolling checksum — so every preemption point leaves observable state.
func genLoopProgram(rng *rand.Rand, bodyLen int) *isa.Program {
	const nV = 10
	b := isa.NewBuilder("fuzzloop", nV, 20, 0)
	v := func() isa.Operand { return isa.R(isa.V(2 + rng.Intn(nV-2))) }
	imm := func() isa.Operand { return isa.Imm(rng.Intn(97) + 1) }
	// v0 = lane output slot, v1 = rolling checksum; s4 = iterations.
	b.I(isa.VLaneID, isa.R(isa.V(0)))
	b.NoOvf(isa.VShl, isa.R(isa.V(0)), isa.R(isa.V(0)), isa.Imm(2))
	b.NoOvf(isa.VAdd, isa.R(isa.V(0)), isa.R(isa.V(0)), isa.Imm(8192))
	b.I(isa.VMov, isa.R(isa.V(1)), isa.Imm(1))
	b.Label("loop")
	for i := 0; i < bodyLen; i++ {
		switch rng.Intn(7) {
		case 0:
			b.I(isa.VAdd, v(), v(), imm())
		case 1:
			b.I(isa.VSub, v(), v(), v())
		case 2:
			b.I(isa.VXor, v(), v(), imm())
		case 3:
			b.I(isa.VMul, v(), v(), imm())
		case 4:
			b.I(isa.VMov, v(), imm())
		case 5:
			b.I(isa.VMad, v(), v(), v(), v())
		case 6:
			addr := isa.V(2 + rng.Intn(nV-2))
			b.I(isa.VAnd, isa.R(addr), isa.R(addr), isa.Imm(0xFFC))
			b.I(isa.VGLoad, v(), isa.R(addr), isa.Imm(0)).Space(1)
		}
	}
	// Fold everything into the checksum and store it.
	for i := 2; i < nV; i++ {
		b.I(isa.VMad, isa.R(isa.V(1)), isa.R(isa.V(1)), isa.Imm(31), isa.R(isa.V(i)))
	}
	b.I(isa.VGStore, isa.R(isa.V(0)), isa.R(isa.V(1)), isa.Imm(0)).Space(2)
	b.I(isa.SSub, isa.R(isa.S(4)), isa.R(isa.S(4)), isa.Imm(1))
	b.I(isa.SCmpGt, isa.R(isa.S(4)), isa.Imm(0))
	b.Branch(isa.SCBranchSCC1, "loop")
	b.I(isa.SEndpgm)
	return mustProg(b)
}

// TestFuzzDynamicGoldenEquivalence preempts random loop kernels at random
// points under every technique and checks bit-exact equivalence with the
// uninterrupted run — the dynamic analogue of the planner fuzz in
// internal/core.
func TestFuzzDynamicGoldenEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	iters := 12
	if testing.Short() {
		iters = 4
	}
	for it := 0; it < iters; it++ {
		prog := genLoopProgram(rng, 8+rng.Intn(20))
		setup := func(w *sim.Warp) { w.SRegs[4] = 12 }

		golden := mustDevice(sim.TestConfig())
		if _, err := golden.Launch(sim.LaunchSpec{Prog: prog, NumBlocks: 2, WarpsPerBlock: 1, Setup: setup}); err != nil {
			t.Fatal(err)
		}
		if err := golden.Run(100_000_000); err != nil {
			t.Fatalf("iter %d golden: %v\n%s", it, err, prog.Disassemble())
		}

		for _, kind := range Kinds() {
			tech, err := New(kind, prog)
			if err != nil {
				t.Fatalf("iter %d %v: %v", it, kind, err)
			}
			d := mustDevice(sim.TestConfig())
			d.AttachRuntime(tech)
			if _, err := d.Launch(sim.LaunchSpec{Prog: prog, NumBlocks: 2, WarpsPerBlock: 1, Setup: setup}); err != nil {
				t.Fatal(err)
			}
			signal := int64(rng.Float64() * 0.9 * float64(golden.Now()))
			if err := d.RunUntil(func() bool { return d.Now() >= signal }, 100_000_000); err != nil {
				t.Fatal(err)
			}
			if ep, err := d.Preempt(0, tech); err == nil {
				if err := d.RunUntil(ep.Saved, 100_000_000); err != nil {
					t.Fatalf("iter %d %v save: %v\n%s", it, kind, err, prog.Disassemble())
				}
				if err := d.Resume(ep); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Run(100_000_000); err != nil {
				t.Fatalf("iter %d %v: %v\n%s", it, kind, err, prog.Disassemble())
			}
			if i := golden.Mem.Diff(d.Mem); i >= 0 {
				t.Fatalf("iter %d %v: mem[%d] = %#x, golden %#x\n%s",
					it, kind, i, d.Mem.Load(i), golden.Mem.Load(i), prog.Disassemble())
			}
		}
	}
}

// clampUnit folds an arbitrary fuzzed float into [0, 1].
func clampUnit(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	x = math.Abs(x)
	if x > 1 {
		x = math.Mod(x, 1)
	}
	return x
}

// genCorpusBit selects the seeded SIMT generator (internal/gen) as the
// fuzzed kernel's source: the remaining seed bits are the generator
// seed. Loop-program seeds keep exercising the original shape.
const genCorpusBit = uint64(1) << 63

// FuzzFaultRecovery drives a preempt/resume episode under seeded fault
// injection and asserts the robustness invariant: every injected fault
// is either detected in-band (and the episode recoverable through a
// fault-free BASELINE re-run) or the run still produces golden output.
// Silent wrong output — a clean finish with non-golden memory — fails.
func FuzzFaultRecovery(f *testing.F) {
	f.Add(uint64(1), 0.2, uint8(4), 0.5)
	f.Add(uint64(7), 0.9, uint8(0), 0.25)
	f.Add(uint64(42), 1.0, uint8(5), 0.75)
	f.Add(uint64(99), 0.05, uint8(2), 0.9)
	// Generated-corpus seeds: kernels from the differential sweep whose
	// generator seeds historically exposed technique bugs (divergent
	// partial definitions, LDS exchange, aliasing streams) — richer
	// preemption surfaces than the loop programs above.
	f.Add(genCorpusBit|2, 0.2, uint8(1), 0.5)
	f.Add(genCorpusBit|6, 0.9, uint8(4), 0.4)
	f.Add(genCorpusBit|11, 0.05, uint8(3), 0.7)
	f.Add(genCorpusBit|19, 0.3, uint8(5), 0.6)
	f.Add(genCorpusBit|745, 0.1, uint8(2), 0.3) // CKPT replay anti-dependence (seed 745)
	f.Fuzz(func(t *testing.T, seed uint64, rate float64, kindIdx uint8, sigFrac float64) {
		const maxCycles = 100_000_000
		rate = clampUnit(rate)
		sigFrac = 0.9 * clampUnit(sigFrac)
		var prog *isa.Program
		var launch func(d *sim.Device)
		if seed&genCorpusBit != 0 {
			gp := gen.Generate(seed &^ genCorpusBit)
			prog = gp.Prog
			launch = func(d *sim.Device) {
				t.Helper()
				if _, err := gp.Launch(d); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			prog = genLoopProgram(rand.New(rand.NewSource(int64(seed))), 10)
			setup := func(w *sim.Warp) { w.SRegs[4] = 10 }
			launch = func(d *sim.Device) {
				t.Helper()
				if _, err := d.Launch(sim.LaunchSpec{Prog: prog, NumBlocks: 2, WarpsPerBlock: 1, Setup: setup}); err != nil {
					t.Fatal(err)
				}
			}
		}

		golden := mustDevice(sim.TestConfig())
		launch(golden)
		if err := golden.Run(maxCycles); err != nil {
			t.Fatalf("golden: %v\n%s", err, prog.Disassemble())
		}
		signal := int64(sigFrac * float64(golden.Now()))
		checkGolden := func(d *sim.Device, what string) {
			t.Helper()
			if i := golden.Mem.Diff(d.Mem); i >= 0 {
				t.Fatalf("%s: mem[%d] = %#x, golden %#x (seed %d rate %.3f)\n%s",
					what, i, d.Mem.Load(i), golden.Mem.Load(i), seed, rate, prog.Disassemble())
			}
		}

		kind := Kinds()[int(kindIdx)%len(Kinds())]
		tech, err := New(kind, prog)
		if err != nil {
			t.Fatal(err)
		}
		d := mustDevice(sim.TestConfig())
		if err := d.InjectFaults(faults.Preset(seed, rate)); err != nil {
			t.Fatal(err)
		}
		d.AttachRuntime(tech)
		launch(d)

		// Full episode under injection. A persistently dropped signal
		// escalates as ErrSignalLost after bounded re-raises; a Preempt
		// refusal for non-fault reasons (SM already drained) skips the
		// episode and just runs to completion.
		skipped := false
		runErr := func() error {
			if err := d.RunUntil(func() bool { return d.Now() >= signal }, maxCycles); err != nil {
				return err
			}
			var ep *sim.Episode
			for attempt := 0; ep == nil; attempt++ {
				e, err := d.Preempt(0, tech)
				switch {
				case err == nil:
					ep = e
				case errors.Is(err, sim.ErrSignalLost) && attempt < 16:
					// redeliver
				case errors.Is(err, sim.ErrSignalLost):
					return err
				default:
					skipped = true
					return d.Run(maxCycles)
				}
			}
			if err := d.RunUntil(ep.Saved, maxCycles); err != nil {
				return err
			}
			if err := d.Resume(ep); err != nil {
				return err
			}
			if err := d.RunUntil(ep.Finished, maxCycles); err != nil {
				return err
			}
			return d.Run(maxCycles)
		}()

		if runErr == nil {
			// Clean finish (or skipped episode): output must be golden.
			checkGolden(d, "fault run finished clean")
			return
		}
		if skipped {
			t.Fatalf("run-to-completion after skipped episode failed: %v", runErr)
		}
		if !sim.FaultDetected(runErr) {
			t.Fatalf("fault escaped in-band detection (seed %d rate %.3f %v): %v", seed, rate, kind, runErr)
		}

		// Detected: degrade by re-running the episode fault-free through
		// BASELINE; the result must be golden.
		base, err := NewBaseline(prog)
		if err != nil {
			t.Fatal(err)
		}
		fb := mustDevice(sim.TestConfig())
		fb.AttachRuntime(base)
		launch(fb)
		if err := fb.RunUntil(func() bool { return fb.Now() >= signal }, maxCycles); err != nil {
			t.Fatal(err)
		}
		if ep, err := fb.Preempt(0, base); err == nil {
			if err := fb.RunUntil(ep.Saved, maxCycles); err != nil {
				t.Fatal(err)
			}
			if err := fb.Resume(ep); err != nil {
				t.Fatal(err)
			}
		}
		if err := fb.Run(maxCycles); err != nil {
			t.Fatalf("BASELINE fallback failed: %v", err)
		}
		checkGolden(fb, "BASELINE fallback")
	})
}
