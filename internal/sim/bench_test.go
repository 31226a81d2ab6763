package sim

import (
	"math"
	"testing"

	"ctxback/internal/isa"
)

// benchLoopProgram is a mixed-traffic kernel exercising the simulator's
// hot loop: scalar and vector ALU, a data-dependent loop, LDS traffic and
// global loads/stores — the instruction mix the Table I kernels present.
func benchLoopProgram(b testing.TB) *isa.Program {
	b.Helper()
	p, err := isa.Assemble(`
.kernel benchloop
.vregs 8
.sregs 16
.lds 512
  ; s0 = loop count, s1 = out base (bytes)
  v_laneid v0
  v_mov v1, 0
  v_shl v2, v0, 2 !noovf
loop:
  v_add v1, v1, s0
  v_mul v3, v1, 3
  v_and v3, v3, 0x7F
  v_lstore v2, v3, 0
  v_lload v4, v2, 0
  v_add v1, v1, v4
  s_add s2, s2, 7
  s_and s2, s2, 0xFF
  s_sub s0, s0, 1
  s_cmp_gt s0, 0
  s_cbranch_scc1 loop
  v_add v2, v2, s1
  v_gstore v2, v1, 0
  s_endpgm
`)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchOccupancyDevice builds a device with every warp slot of every SM
// filled by two tenants' compute-bound launches — the regime where the
// scheduler's per-instruction warp-selection cost dominates (selection
// work grows with occupancy, not with useful work).
func benchOccupancyDevice(b testing.TB, prog *isa.Program) *Device {
	b.Helper()
	cfg := DefaultConfig()
	cfg.GlobalMemBytes = 4 << 20 // keep per-iteration Mem allocation cheap
	d := mustNewDevice(cfg)
	// Two tenants split the device's warp slots; together they saturate
	// all NumSMs x MaxWarpsPerSM slots.
	perTenant := cfg.NumSMs * cfg.MaxWarpsPerSM / 2 / 2 // blocks of 2 warps
	for tenant := 0; tenant < 2; tenant++ {
		base := 1 << 20
		if tenant == 1 {
			base = 2 << 20
		}
		_, err := d.Launch(LaunchSpec{
			Prog: prog, NumBlocks: perTenant, WarpsPerBlock: 2,
			Setup: func(w *Warp) {
				w.SRegs[0] = 48 // loop count
				w.SRegs[1] = uint64(base + w.ID*isa.WarpSize*4)
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return d
}

// runOccupancyBench drives the saturated device to completion each
// iteration; scan toggles the O(W)-scan reference scheduler so the
// event-driven ready queue can be compared against it on identical work.
func runOccupancyBench(b *testing.B, scan bool) {
	prog := benchLoopProgram(b)
	var instrs int64
	for b.Loop() {
		d := benchOccupancyDevice(b, prog)
		if scan {
			d.UseReferenceScheduler()
		}
		if err := d.Run(1 << 40); err != nil {
			b.Fatal(err)
		}
		instrs += d.Stats.Instructions
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(instrs)/secs, "sim_instrs/s")
	}
}

// BenchmarkStepFullOccupancy measures per-instruction scheduling cost at
// full occupancy (multi-tenant, all SMs saturated) under the default
// event-driven ready queue.
func BenchmarkStepFullOccupancy(b *testing.B) { runOccupancyBench(b, false) }

// BenchmarkStepFullOccupancyReference is the same workload under the
// retained O(SMs x warps) linear-scan reference scheduler — the
// before/after pair BENCH_PR5.json records.
func BenchmarkStepFullOccupancyReference(b *testing.B) { runOccupancyBench(b, true) }

// BenchmarkSimExecLoop measures the simulator's per-instruction cost on
// the hot execute/issue path. Run with -benchmem: allocs/op is the
// regression gate for the zero-allocation inner loop.
func BenchmarkSimExecLoop(b *testing.B) {
	prog := benchLoopProgram(b)
	var instrs int64
	for b.Loop() {
		d := mustNewDevice(TestConfig())
		_, err := d.Launch(LaunchSpec{
			Prog: prog, NumBlocks: 4, WarpsPerBlock: 2,
			Setup: func(w *Warp) {
				w.SRegs[0] = 64 // loop count
				w.SRegs[1] = uint64(4096 + w.ID*isa.WarpSize*4)
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Run(1 << 40); err != nil {
			b.Fatal(err)
		}
		instrs += d.Stats.Instructions
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(instrs)/secs, "sim_instrs/s")
	}
}

// benchExecs are the EXEC masks the per-instruction benchmarks run
// under: every lane, and an irregular half of them.
var benchExecs = []struct {
	name string
	exec uint64
}{{"full", ^uint64(0)}, {"partial", 0x5555_AAAA_F0F0_0F0F}}

// benchWarp is a warp whose v1/v2 hold small finite floats (no
// denormals, which would time the FPU's slow path instead of the
// executor), v3 holds word addresses, and s1 a scalar operand.
func benchWarp() *Warp {
	prog := &isa.Program{Name: "bench", NumVRegs: 4, NumSRegs: 16,
		Instrs: []isa.Instruction{{Op: isa.SEndpgm}}}
	w := newWarp(0, 0, 0, prog, nil, nil)
	w.SM = &SM{}
	for l := 0; l < isa.WarpSize; l++ {
		w.VRegs[1][l] = math.Float32bits(float32(l) + 1.5)
		w.VRegs[2][l] = math.Float32bits(float32(l%7) - 2.25)
		w.VRegs[3][l] = uint32(4096 + 4*l)
	}
	w.SRegs[1] = 3
	w.VCC = 0x0F0F_F0F0_3333_CCCC
	return w
}

// runInstrBench times one instruction executed repeatedly under each
// EXEC mask of benchExecs; ns/op is the cost of one warp-wide execution.
func runInstrBench(b *testing.B, name string, in isa.Instruction) {
	for _, m := range benchExecs {
		b.Run(name+"/"+m.name, func(b *testing.B) {
			d := mustNewDevice(TestConfig())
			w := benchWarp()
			w.Exec = m.exec
			for b.Loop() {
				if _, err := d.execute(w, &in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVALU measures one vector ALU instruction per op: integer,
// float, compare and select, with vector and scalar sources, each under
// full and partial EXEC.
func BenchmarkVALU(b *testing.B) {
	v, s := func(i int) isa.Operand { return isa.R(isa.V(i)) }, isa.R(isa.S(1))
	for _, c := range []struct {
		name string
		in   isa.Instruction
	}{
		{"int/v_add", isa.Instruction{Op: isa.VAdd, Dst: isa.V(0), Srcs: [isa.MaxSrcs]isa.Operand{v(1), v(2)}}},
		{"int/v_mul_scalar", isa.Instruction{Op: isa.VMul, Dst: isa.V(0), Srcs: [isa.MaxSrcs]isa.Operand{v(1), s}}},
		{"int/v_mad", isa.Instruction{Op: isa.VMad, Dst: isa.V(0), Srcs: [isa.MaxSrcs]isa.Operand{v(1), s, v(2)}}},
		{"float/v_add_f32", isa.Instruction{Op: isa.VAddF, Dst: isa.V(0), Srcs: [isa.MaxSrcs]isa.Operand{v(1), v(2)}}},
		{"float/v_mad_f32", isa.Instruction{Op: isa.VMadF, Dst: isa.V(0), Srcs: [isa.MaxSrcs]isa.Operand{v(1), v(2), v(1)}}},
		{"float/v_min_f32", isa.Instruction{Op: isa.VMinF, Dst: isa.V(0), Srcs: [isa.MaxSrcs]isa.Operand{v(1), v(2)}}},
		{"compare/v_cmp_lt_f32", isa.Instruction{Op: isa.VCmpLtF, Srcs: [isa.MaxSrcs]isa.Operand{v(1), v(2)}}},
		{"compare/v_cmp_eq_i32", isa.Instruction{Op: isa.VCmpEqI, Srcs: [isa.MaxSrcs]isa.Operand{v(1), s}}},
		{"select/v_cndmask", isa.Instruction{Op: isa.VCndMask, Dst: isa.V(0), Srcs: [isa.MaxSrcs]isa.Operand{v(1), v(2)}}},
	} {
		runInstrBench(b, c.name, c.in)
	}
}

// BenchmarkVectorGlobal measures one vector global-memory instruction
// (load, store, atomic add) over 64 consecutive words, under full and
// partial EXEC: inside one page, and across a page boundary (lanes 0-31
// in one page, 32-63 in the next).
func BenchmarkVectorGlobal(b *testing.B) {
	v := func(i int) isa.Operand { return isa.R(isa.V(i)) }
	const cross = PageBytes - 4096 - 128 // offset from benchWarp's v3
	for _, c := range []struct {
		name string
		in   isa.Instruction
	}{
		{"v_gload", isa.Instruction{Op: isa.VGLoad, Dst: isa.V(0), Srcs: [isa.MaxSrcs]isa.Operand{v(3)}, Imm0: 64}},
		{"v_gstore", isa.Instruction{Op: isa.VGStore, Srcs: [isa.MaxSrcs]isa.Operand{v(3), v(1)}, Imm0: 64}},
		{"v_gatomic_add", isa.Instruction{Op: isa.VGAtomicAdd, Srcs: [isa.MaxSrcs]isa.Operand{v(3), v(1)}, Imm0: 64}},
		{"page-cross/v_gload", isa.Instruction{Op: isa.VGLoad, Dst: isa.V(0), Srcs: [isa.MaxSrcs]isa.Operand{v(3)}, Imm0: cross}},
		{"page-cross/v_gstore", isa.Instruction{Op: isa.VGStore, Srcs: [isa.MaxSrcs]isa.Operand{v(3), v(1)}, Imm0: cross}},
		{"page-cross/v_gatomic_add", isa.Instruction{Op: isa.VGAtomicAdd, Srcs: [isa.MaxSrcs]isa.Operand{v(3), v(1)}, Imm0: cross}},
	} {
		runInstrBench(b, c.name, c.in)
	}
}

var sinkDevice *Device

// BenchmarkNewDevice measures device construction at the three memory
// sizes in use: TestConfig's 1 MiB, serve's 64 MiB on TestConfig, and
// DefaultConfig's 256 MiB.
func BenchmarkNewDevice(b *testing.B) {
	serve := TestConfig()
	serve.GlobalMemBytes = 64 << 20
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"1MiB", TestConfig()}, {"64MiB", serve}, {"256MiB", DefaultConfig()}} {
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				sinkDevice = mustNewDevice(c.cfg)
			}
		})
	}
}
