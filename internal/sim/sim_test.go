package sim

import (
	"math"
	"slices"
	"testing"

	"ctxback/internal/isa"
)

func mustAsm(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runSimple launches prog as a single block of one warp and runs to
// completion.
func runSimple(t *testing.T, prog *isa.Program, setup func(w *Warp)) *Device {
	t.Helper()
	d := mustNewDevice(TestConfig())
	if _, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 1, WarpsPerBlock: 1, Setup: setup}); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestScalarALUSemantics(t *testing.T) {
	prog := mustAsm(t, `
.kernel salu
.vregs 4
.sregs 16
  s_mov s0, 10
  s_add s1, s0, 5
  s_sub s2, s1, 3
  s_mul s3, s2, 4
  s_and s4, s3, 0xF
  s_or  s5, s4, 0x30
  s_xor s6, s5, 0xFF
  s_shl s7, s0, 2
  s_shr s8, s7, 1
  s_min s9, s0, s1
  s_max s10, s0, s1
  s_not s11, 0
  v_mov v0, s6
  v_gstore v1, v0, 0
  s_endpgm
`)
	var warp *Warp
	d := runSimple(t, prog, func(w *Warp) {
		warp = w
		for l := 0; l < isa.WarpSize; l++ {
			w.VRegs[1][l] = uint32(l * 4) // store addresses
		}
	})
	want := map[int]uint64{
		1: 15, 2: 12, 3: 48, 4: 0, 5: 0x30, 6: 0x30 ^ 0xFF,
		7: 40, 8: 20, 9: 10, 10: 15, 11: ^uint64(0),
	}
	for idx, v := range want {
		if warp.SRegs[idx] != v {
			t.Errorf("s%d = %d, want %d", idx, warp.SRegs[idx], v)
		}
	}
	if d.Mem.Load(0) != uint32(0x30^0xFF) {
		t.Errorf("mem[0] = %d", d.Mem.Load(0))
	}
}

func TestVectorALUAndLaneID(t *testing.T) {
	prog := mustAsm(t, `
.kernel valu
.vregs 8
.sregs 16
  v_laneid v0
  v_shl v1, v0, 2 !noovf
  v_add v2, v1, 100
  v_mad v3, v0, v0, v2
  v_gstore v4, v3, 0
  s_endpgm
`)
	d := runSimple(t, prog, func(w *Warp) {
		for l := 0; l < isa.WarpSize; l++ {
			w.VRegs[4][l] = uint32(l * 4)
		}
	})
	for l := 0; l < isa.WarpSize; l++ {
		want := uint32(l*l + l*4 + 100)
		if d.Mem.Load(l) != want {
			t.Fatalf("lane %d: mem = %d, want %d", l, d.Mem.Load(l), want)
		}
	}
}

func TestFloatSemantics(t *testing.T) {
	prog := mustAsm(t, `
.kernel flt
.vregs 8
.sregs 16
  v_mov v0, 2.0f
  v_mov v1, 3.0f
  v_mul_f32 v2, v0, v1
  v_mad_f32 v3, v2, v0, v1
  v_rcp_f32 v4, v0
  v_sqrt_f32 v5, v3
  v_gstore v6, v5, 0
  s_endpgm
`)
	d := runSimple(t, prog, func(w *Warp) {
		for l := 0; l < isa.WarpSize; l++ {
			w.VRegs[6][l] = uint32(l * 4)
		}
	})
	got := math.Float32frombits(d.Mem.Load(0))
	want := float32(math.Sqrt(15)) // 2*3*2+3
	if got != want {
		t.Errorf("sqrt result = %v, want %v", got, want)
	}
}

func TestExecMaskPredication(t *testing.T) {
	// Lanes with laneid < 4 add 1000; others keep original value.
	prog := mustAsm(t, `
.kernel pred
.vregs 8
.sregs 16
  v_laneid v0
  v_mov v1, 7
  v_cmp_lt_i32 v0, 4
  s_and_saveexec_vcc s2
  v_add v1, v1, 1000
  s_setexec s2
  v_gstore v2, v1, 0
  s_endpgm
`)
	d := runSimple(t, prog, func(w *Warp) {
		for l := 0; l < isa.WarpSize; l++ {
			w.VRegs[2][l] = uint32(l * 4)
		}
	})
	for l := 0; l < isa.WarpSize; l++ {
		want := uint32(7)
		if l < 4 {
			want = 1007
		}
		if d.Mem.Load(l) != want {
			t.Fatalf("lane %d = %d, want %d", l, d.Mem.Load(l), want)
		}
	}
}

func TestLoopExecution(t *testing.T) {
	// Sum 1..10 per lane.
	prog := mustAsm(t, `
.kernel loop
.vregs 4
.sregs 16
  s_mov s0, 10
  v_mov v0, 0
loop:
  v_add v0, v0, s0
  s_sub s0, s0, 1
  s_cmp_gt s0, 0
  s_cbranch_scc1 loop
  v_gstore v1, v0, 0
  s_endpgm
`)
	d := runSimple(t, prog, func(w *Warp) {
		for l := 0; l < isa.WarpSize; l++ {
			w.VRegs[1][l] = uint32(l * 4)
		}
	})
	if d.Mem.Load(0) != 55 {
		t.Errorf("sum = %d, want 55", d.Mem.Load(0))
	}
}

func TestGlobalLoadStoreRoundTrip(t *testing.T) {
	prog := mustAsm(t, `
.kernel mem
.vregs 4
.sregs 16
  s_gload s1, s0, 0
  v_gload v1, v0, 0
  v_add v1, v1, s1
  v_gstore v2, v1, 0
  s_endpgm
`)
	d := mustNewDevice(TestConfig())
	d.Mem.Store(0, 5) // scalar arg at addr 0
	for l := 0; l < isa.WarpSize; l++ {
		d.Mem.Store(1+l, uint32(l*10))
	}
	_, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 1, WarpsPerBlock: 1, Setup: func(w *Warp) {
		w.SRegs[0] = 0
		for l := 0; l < isa.WarpSize; l++ {
			w.VRegs[0][l] = uint32(4 + l*4)    // input
			w.VRegs[2][l] = uint32(1024 + l*4) // output
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < isa.WarpSize; l++ {
		if got := d.Mem.Load(256 + l); got != uint32(l*10+5) {
			t.Fatalf("lane %d: got %d, want %d", l, got, l*10+5)
		}
	}
}

func TestLDSAndBarrier(t *testing.T) {
	// Two warps: each writes its warp id to LDS, barrier, then each reads
	// the other's value.
	prog := mustAsm(t, `
.kernel lds
.vregs 8
.sregs 16
.lds 512
  s_shl s1, s0, 2
  v_mov v0, s1
  v_mov v1, s0
  v_lstore v0, v1, 0
  s_barrier
  s_xor s2, s0, 1
  s_shl s3, s2, 2
  v_mov v2, s3
  v_lload v3, v2, 0
  s_shl s4, s0, 2
  v_mov v4, s4
  v_gstore v4, v3, 0
  s_endpgm
`)
	d := mustNewDevice(TestConfig())
	_, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 1, WarpsPerBlock: 2, Setup: func(w *Warp) {
		w.SRegs[0] = uint64(w.WarpInBlk)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if d.Mem.Load(0) != 1 || d.Mem.Load(1) != 0 {
		t.Errorf("cross-warp LDS exchange: mem[0]=%d mem[1]=%d, want 1 0", d.Mem.Load(0), d.Mem.Load(1))
	}
}

func TestAtomicAdd(t *testing.T) {
	prog := mustAsm(t, `
.kernel atom
.vregs 4
.sregs 16
  v_mov v0, 0
  v_mov v1, 1
  v_gatomic_add v0, v1, 0
  s_endpgm
`)
	d := mustNewDevice(TestConfig())
	_, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 1, WarpsPerBlock: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	// 2 warps x 64 lanes each add 1 to mem[0].
	if d.Mem.Load(0) != 2*isa.WarpSize {
		t.Errorf("atomic sum = %d, want %d", d.Mem.Load(0), 2*isa.WarpSize)
	}
}

func TestMemoryFaultDetected(t *testing.T) {
	prog := mustAsm(t, `
.kernel fault
.vregs 4
.sregs 16
  v_mov v0, 0x7FFFFFF0
  v_gload v1, v0, 0
  s_endpgm
`)
	d := mustNewDevice(TestConfig())
	if _, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 1, WarpsPerBlock: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(1_000_000); err == nil {
		t.Fatal("out-of-range access must fault")
	}
}

func TestOccupancyLimits(t *testing.T) {
	cfg := TestConfig()
	small := &isa.Program{Name: "small", NumVRegs: 8, NumSRegs: 16,
		Instrs: []isa.Instruction{{Op: isa.SEndpgm}}}
	occ, err := cfg.Occupancy(small, 1)
	if err != nil {
		t.Fatal(err)
	}
	if occ.WarpsPerSM != cfg.MaxWarpsPerSM {
		t.Errorf("small kernel warps/SM = %d, want slot limit %d", occ.WarpsPerSM, cfg.MaxWarpsPerSM)
	}
	// 128 vregs * 256B = 32 KB per warp -> 8 warps in a 256 KB file.
	big := &isa.Program{Name: "big", NumVRegs: 128, NumSRegs: 16,
		Instrs: []isa.Instruction{{Op: isa.SEndpgm}}}
	occ, err = cfg.Occupancy(big, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.VRegFileBytes / (128 * 4 * isa.WarpSize); occ.WarpsPerSM != min(want, cfg.MaxWarpsPerSM) {
		t.Errorf("big kernel warps/SM = %d (limited by %s)", occ.WarpsPerSM, occ.LimitedBy)
	}
	// LDS-bound kernel.
	ldsy := &isa.Program{Name: "ldsy", NumVRegs: 4, NumSRegs: 16, LDSBytes: 32 << 10,
		Instrs: []isa.Instruction{{Op: isa.SEndpgm}}}
	occ, err = cfg.Occupancy(ldsy, 2)
	if err != nil {
		t.Fatal(err)
	}
	if occ.BlocksPerSM != 2 || occ.LimitedBy != "LDS" {
		t.Errorf("lds occupancy = %+v", occ)
	}
	// Does not fit at all.
	huge := &isa.Program{Name: "huge", NumVRegs: 4, NumSRegs: 16, LDSBytes: 128 << 10,
		Instrs: []isa.Instruction{{Op: isa.SEndpgm}}}
	if _, err := cfg.Occupancy(huge, 1); err == nil {
		t.Error("oversized kernel must not fit")
	}
}

func TestMultiBlockDispatchWaves(t *testing.T) {
	// More blocks than fit at once: the dispatcher must run them in
	// waves. Each warp stores 1 to its own slot.
	prog := mustAsm(t, `
.kernel waves
.vregs 4
.sregs 16
  s_shl s1, s0, 2
  v_mov v0, s1
  v_mov v1, 1
  v_gstore v0, v1, 0
  s_endpgm
`)
	d := mustNewDevice(TestConfig())
	numBlocks := d.Cfg.NumSMs*d.Cfg.MaxWarpsPerSM + 5 // forces >1 wave
	_, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: numBlocks, WarpsPerBlock: 1, Setup: func(w *Warp) {
		w.SRegs[0] = uint64(w.ID)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < numBlocks; i++ {
		if d.Mem.Load(i) != 1 {
			t.Fatalf("block %d never ran", i)
		}
	}
}

func TestTimingMemoryLatency(t *testing.T) {
	// A dependent load chain must cost at least MemLatency per load.
	prog := mustAsm(t, `
.kernel lat
.vregs 4
.sregs 16
  v_gload v0, v1, 0
  v_gload v0, v0, 0
  v_gload v0, v0, 0
  v_gstore v1, v0, 0
  s_endpgm
`)
	d := mustNewDevice(TestConfig())
	_, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 1, WarpsPerBlock: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if d.Now() < 3*int64(d.Cfg.MemLatency) {
		t.Errorf("cycles = %d, want >= %d (3 dependent loads)", d.Now(), 3*d.Cfg.MemLatency)
	}
}

func TestTimingLatencyHiding(t *testing.T) {
	// Many independent warps issuing loads should overlap latency: total
	// time should be far less than warps * latency.
	prog := mustAsm(t, `
.kernel hide
.vregs 4
.sregs 16
  v_gload v0, v1, 0
  v_add v0, v0, 1
  v_gstore v1, v0, 0
  s_endpgm
`)
	run := func(warps int) int64 {
		d := mustNewDevice(TestConfig())
		_, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: warps, WarpsPerBlock: 1, Setup: func(w *Warp) {
			for l := 0; l < isa.WarpSize; l++ {
				w.VRegs[1][l] = uint32((w.ID*isa.WarpSize + l) * 4)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		return d.Now()
	}
	one := run(1)
	eight := run(8)
	if eight > one*4 {
		t.Errorf("8 warps took %d cycles vs %d for 1: latency hiding broken", eight, one)
	}
}

func TestStatsAccounting(t *testing.T) {
	prog := mustAsm(t, `
.kernel stats
.vregs 4
.sregs 16
  v_mov v0, 1
  v_gstore v1, v0, 0
  s_endpgm
`)
	d := runSimple(t, prog, nil)
	if d.Stats.KernelInstrs != 3 {
		t.Errorf("kernel instrs = %d, want 3", d.Stats.KernelInstrs)
	}
	if d.Stats.GlobalBytes < int64(isa.WarpSize*4) {
		t.Errorf("global bytes = %d", d.Stats.GlobalBytes)
	}
}

// TestRemoveLaunchRecyclesRegisters pins RemoveLaunch's register
// recycling: the removed launch's warps give up their register files,
// and a later launch with the same register counts takes those files
// back zeroed, clocks included.
func TestRemoveLaunchRecyclesRegisters(t *testing.T) {
	dirty := mustAsm(t, `
.kernel dirty
.vregs 4
.sregs 16
  v_laneid v0
  v_add v1, v0, 7
  s_mov s3, 9
  s_endpgm
`)
	d := mustNewDevice(TestConfig())
	l, err := d.Launch(LaunchSpec{Prog: dirty, NumBlocks: 2, WarpsPerBlock: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	freed := make(map[*uint32]bool)
	for _, w := range l.Warps {
		if w.VRegs[1][1] != 8 || w.SRegs[3] != 9 || slices.Max(w.clock) == 0 {
			t.Fatalf("warp %d did not dirty its registers and clocks", w.ID)
		}
		freed[&w.VRegs[0][0]] = true
	}
	if err := d.RemoveLaunch(l); err != nil {
		t.Fatal(err)
	}
	for _, w := range l.Warps {
		if w.VRegs != nil || w.SRegs != nil {
			t.Errorf("removed warp %d still exposes its registers", w.ID)
		}
	}

	same := mustAsm(t, `
.kernel same
.vregs 4
.sregs 16
  s_endpgm
`)
	reused := 0
	setup := func(w *Warp) {
		if freed[&w.VRegs[0][0]] {
			reused++
		}
		for _, v := range w.VRegs {
			for _, x := range v {
				if x != 0 {
					t.Fatalf("warp %d starts with a non-zero vector register", w.ID)
				}
			}
		}
		for _, x := range w.SRegs {
			if x != 0 {
				t.Fatalf("warp %d starts with a non-zero scalar register", w.ID)
			}
		}
		if slices.Max(w.clock) != 0 {
			t.Fatalf("warp %d starts with a register still in flight", w.ID)
		}
	}
	if _, err := d.Launch(LaunchSpec{Prog: same, NumBlocks: 2, WarpsPerBlock: 2, Setup: setup}); err != nil {
		t.Fatal(err)
	}
	if reused != len(freed) {
		t.Fatalf("the new launch reused %d of %d freed register files", reused, len(freed))
	}
}
