package gen

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ctxback/internal/cfg"
	"ctxback/internal/core"
	"ctxback/internal/liveness"
	"ctxback/internal/sim"
)

// TestGenerateDeterministic pins the reproducibility contract: the seed
// IS the program. Any failing seed from a sweep must regenerate to the
// byte-identical kernel, or minimization and triage fall apart.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		a, b := Generate(seed), Generate(seed)
		if da, db := a.Prog.Disassemble(), b.Prog.Disassemble(); da != db {
			t.Fatalf("seed %d: two generations disassemble differently", seed)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ outside the listing (grid, layout or inputs)", seed)
		}
	}
}

// TestCorpusValidatorClean holds 1000 consecutive seeds to the
// toolchain bar: every generated program validates, builds a CFG and
// analyzes; a sample compiles under the full CTXBack feature set. The
// sweep silently skips nothing — a generator emitting even one
// malformed program would turn corpus coverage into a lie.
func TestCorpusValidatorClean(t *testing.T) {
	for seed := uint64(0); seed < 1000; seed++ {
		p := Generate(seed)
		if err := p.Prog.Validate(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p.Prog.Disassemble())
		}
		g, err := cfg.Build(p.Prog)
		if err != nil {
			t.Fatalf("seed %d: cfg: %v", seed, err)
		}
		live := liveness.Analyze(g)
		if got, want := len(live.LiveIn), p.Prog.Len(); got != want {
			t.Fatalf("seed %d: liveness covers %d of %d PCs", seed, got, want)
		}
		if seed%16 != 0 {
			continue
		}
		c, err := core.Compile(p.Prog, core.FeatAll)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: invariants: %v", seed, err)
		}
	}
}

// TestTerminationBound pins the termination argument: every generated
// program's golden evaluation finishes within the interpreter's dynamic
// budget (loops have bounded trip counts by construction — counted
// descents to zero — so the budget is a backstop, not a tuning knob).
func TestTerminationBound(t *testing.T) {
	memWords := sim.TestConfig().GlobalMemBytes / 4
	for seed := uint64(0); seed < 300; seed++ {
		p := Generate(seed)
		if _, err := p.Expected(memWords); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p.Prog.Disassemble())
		}
	}
}

// TestInterpreterOrderIndependent exercises the race discipline the
// whole differential method rests on: warps write private tiles, touch
// shared accumulators only through commuting atomic adds, and exchange
// LDS only across barriers, so the final memory image cannot depend on
// warp interleaving. Any schedule sensitivity here would let the golden
// image drift from what a differently-interleaved simulator run can
// produce, reporting phantom bugs.
func TestInterpreterOrderIndependent(t *testing.T) {
	memWords := sim.TestConfig().GlobalMemBytes / 4
	for seed := uint64(0); seed < 100; seed++ {
		p := Generate(seed)
		base := p.InitialMem(memWords)
		if err := p.interpretOrder(base, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		n := p.WarpsPerBlock
		orders := [][]int{make([]int, n), make([]int, n), make([]int, n)}
		rng := rand.New(rand.NewSource(int64(seed)))
		for i := 0; i < n; i++ {
			orders[0][i] = n - 1 - i         // reversed
			orders[1][i] = (i + n/2 + 1) % n // rotated
			orders[2][i] = i
		}
		rng.Shuffle(n, func(i, j int) { orders[2][i], orders[2][j] = orders[2][j], orders[2][i] })
		for oi, order := range orders {
			mem := p.InitialMem(memWords)
			if err := p.interpretOrder(mem, order); err != nil {
				t.Fatalf("seed %d order %d: %v", seed, oi, err)
			}
			for i := range mem {
				if mem[i] != base[i] {
					t.Fatalf("seed %d order %v: mem[%#x] = %#x, identity order %#x\n%s",
						seed, order, i*4, mem[i], base[i], p.Prog.Disassemble())
				}
			}
		}
	}
}

// TestDifferentialUninterrupted is the ground-floor oracle: with no
// preemption at all, the simulator and the golden interpreter must
// agree on the whole memory image.
func TestDifferentialUninterrupted(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		p := Generate(seed)
		d, err := sim.NewDevice(sim.TestConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Launch(d); err != nil {
			t.Fatalf("seed %d: launch: %v", seed, err)
		}
		if err := d.Run(100_000_000); err != nil {
			t.Fatalf("seed %d: run: %v\n%s", seed, err, p.Prog.Disassemble())
		}
		if err := p.CheckDevice(d); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p.Prog.Disassemble())
		}
	}
}

// TestCheckDeviceCatchesStrayWrite pins CheckDevice's page summary: it
// skips a device page without storage over a page the expected image
// holds only zeros in, so a stray write there, which gives the page
// storage, must still be found and counted once.
func TestCheckDeviceCatchesStrayWrite(t *testing.T) {
	p := Generate(0)
	d, err := sim.NewDevice(sim.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Launch(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckDevice(d); err != nil {
		t.Fatal(err)
	}
	last := d.Mem.Words() - 1
	if !p.expectedZero[last/sim.PageWords] {
		t.Fatalf("the program writes the last page of memory; the stray write needs a page it never touches")
	}
	d.Mem.Runs(last, 1, func(_ int, _ []uint32, owned bool) {
		if owned {
			t.Fatalf("the last page has storage before the stray write")
		}
	})
	d.Mem.Store(last, 0xBAD)
	err = p.CheckDevice(d)
	if err == nil || !strings.Contains(err.Error(), ": 1 words differ") {
		t.Fatalf("CheckDevice after one stray write = %v, want 1 word differing", err)
	}
}
