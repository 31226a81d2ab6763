package sim

import (
	"testing"

	"ctxback/internal/isa"
)

// mustNewDevice builds a device from a test-verified static config;
// construction failure is a test bug, so it panics.
func mustNewDevice(cfg Config) *Device {
	d, err := NewDevice(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// mustProg finalizes a statically constructed test program.
func mustProg(b *isa.Builder) *isa.Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// kernelDecoded decodes in as a kernel instruction: the first of a
// program with w's register counts, so the immediates it reads per lane
// come from the table's shared lanes.
func kernelDecoded(tb testing.TB, w *Warp, in isa.Instruction) *isa.Decoded {
	tb.Helper()
	p := &isa.Program{Name: "one", NumVRegs: w.Prog.NumVRegs, NumSRegs: w.Prog.NumSRegs,
		Instrs: []isa.Instruction{in, {Op: isa.SEndpgm}}}
	tab := p.Table()
	if tab.Err != nil {
		tb.Fatal(tab.Err)
	}
	return &tab.Code[0]
}

// routineDecoded decodes in as the one-instruction routine stream of a
// warp of w's register counts.
func routineDecoded(w *Warp, in *isa.Instruction) *isa.Decoded {
	return &isa.DecodeStream([]isa.Instruction{*in}, len(w.VRegs), len(w.SRegs))[0]
}
