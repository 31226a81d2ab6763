// Quickstart: assemble a small SIMT kernel, run the CTXBack pass on it,
// inspect the flashback-points it finds, then preempt the kernel
// mid-flight on the simulator and verify the resumed run is exact.
package main

import (
	"fmt"
	"log"

	"ctxback/internal/core"
	"ctxback/internal/isa"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
)

const kernelSrc = `
.kernel saxpy
.vregs 10
.sregs 36
; s4 = x base, s5 = y base, s6 = iterations, s7 = alpha (f32 bits)
  v_laneid v0
  v_shl v1, v0, 2 !noovf
  v_add v2, v1, s4 !noovf
  v_add v3, v1, s5 !noovf
loop:
  v_gload v4, v2, 0
  v_gload v5, v3, 0
  v_mad_f32 v6, v4, s7, v5
  v_gstore v3, v6, 0
  v_add v2, v2, 256 !noovf
  v_add v3, v3, 256 !noovf
  s_sub s6, s6, 1
  s_cmp_gt s6, 0
  s_cbranch_scc1 loop
  s_endpgm
`

func main() {
	prog, err := isa.Assemble(kernelSrc)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Compile-time: find flashback-points for every instruction.
	compiled, err := core.Compile(prog, core.FeatAll)
	if err != nil {
		log.Fatal(err)
	}
	live := compiled.Live
	fmt.Println("CTXBack flashback-points for saxpy:")
	fmt.Printf("%4s %-32s %6s %10s %10s\n", "PC", "instruction", "Q", "LIVE B", "CTXBack B")
	for pc := 0; pc < prog.Len(); pc++ {
		plan := compiled.Plans[pc]
		fmt.Printf("%4d %-32s %6d %10d %10d\n",
			pc, prog.At(pc).String(), plan.Q, live.ContextBytes(pc), plan.ContextBytes)
	}

	// 2. Runtime: run the kernel, preempt it mid-loop, resume, verify.
	const (
		iters = 64
		xBase = 4096
	)
	n := isa.WarpSize * iters
	yBase := xBase + n*4
	alpha := float32(2.5)

	tech, err := preempt.NewCTXBack(prog)
	if err != nil {
		log.Fatal(err)
	}
	d, err := sim.NewDevice(sim.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	d.AttachRuntime(tech)

	x := make([]uint32, n)
	y := make([]uint32, n)
	for i := range x {
		x[i] = isa.ImmF(float32(i)).Imm
		y[i] = isa.ImmF(float32(n - i)).Imm
	}
	if err := d.WriteWords(xBase, x); err != nil {
		log.Fatal(err)
	}
	if err := d.WriteWords(yBase, y); err != nil {
		log.Fatal(err)
	}
	_, err = d.Launch(sim.LaunchSpec{
		Prog: prog, NumBlocks: 1, WarpsPerBlock: 1,
		Setup: func(w *sim.Warp) {
			w.SRegs[4] = uint64(xBase)
			w.SRegs[5] = uint64(yBase)
			w.SRegs[6] = iters
			w.SRegs[7] = uint64(isa.ImmF(alpha).Imm)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Let it run half way, then preempt.
	if err := d.RunToCycle(10_001, 1<<30); err != nil {
		log.Fatal(err)
	}
	ep, err := d.Preempt(0, tech)
	if err != nil {
		log.Fatal(err)
	}
	if err := d.RunUntil(ep.Saved, 1<<30); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npreempted at cycle %d: latency %d cycles, context %d bytes\n",
		ep.SignalCycle, ep.PreemptLatencyCycles(), ep.SavedBytes())
	if err := d.Resume(ep); err != nil {
		log.Fatal(err)
	}
	if err := d.Run(1 << 30); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed in %d cycles\n", ep.ResumeCycles())

	// Verify y = alpha*x + y.
	got, err := d.ReadWords(yBase, n)
	if err != nil {
		log.Fatal(err)
	}
	for i := range got {
		want := isa.ImmF(alpha*float32(i) + float32(n-i)).Imm
		if got[i] != want {
			log.Fatalf("y[%d] = %#x, want %#x", i, got[i], want)
		}
	}
	fmt.Println("output verified: preempted run matches the uninterrupted computation")
}
