package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ctxback/internal/isa"
)

// TestRevertRoundTripQuick executes random revertible instructions on
// real register values and checks that running the generated inverse
// recovers the overwritten register exactly — the dynamic contract
// behind instruction reverting (paper §III-C).
func TestRevertRoundTripQuick(t *testing.T) {
	ops := []isa.Op{isa.VAdd, isa.VSub, isa.VXor, isa.SAdd, isa.SSub, isa.SXor}
	f := func(a, b uint32, opIdx uint8, pos bool) bool {
		op := ops[int(opIdx)%len(ops)]
		scalar := op == isa.SAdd || op == isa.SSub || op == isa.SXor
		var dst, other isa.Reg
		if scalar {
			dst, other = isa.S(0), isa.S(1)
		} else {
			dst, other = isa.V(0), isa.V(1)
		}
		// r' = op(r, x) or op(x, r).
		srcs := [isa.MaxSrcs]isa.Operand{isa.R(dst), isa.R(other)}
		if pos {
			srcs = [isa.MaxSrcs]isa.Operand{isa.R(other), isa.R(dst)}
		}
		in := isa.Instruction{Op: op, Dst: dst, Srcs: srcs}
		rev, ok := in.Revertible()
		if !ok {
			t.Fatalf("%s must be revertible", in.String())
		}

		prog := &isa.Program{Name: "rt", NumVRegs: 2, NumSRegs: 16,
			Instrs: []isa.Instruction{{Op: isa.SEndpgm}}}
		d := mustNewDevice(TestConfig())
		l, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 1, WarpsPerBlock: 1})
		if err != nil {
			t.Fatal(err)
		}
		w := l.Warps[0]
		if scalar {
			w.SRegs[0], w.SRegs[1] = uint64(a), uint64(b)
		} else {
			for lane := 0; lane < isa.WarpSize; lane++ {
				w.VRegs[0][lane] = a + uint32(lane)
				w.VRegs[1][lane] = b ^ uint32(lane*7)
			}
		}
		before := snapshotReg(w, dst)
		if _, err := d.execute(w, kernelDecoded(t, w, in)); err != nil {
			t.Fatal(err)
		}
		// A revert runs inside a resume routine, decoded when fetched.
		if _, err := d.execute(w, routineDecoded(w, &rev)); err != nil {
			t.Fatal(err)
		}
		after := snapshotReg(w, dst)
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

func snapshotReg(w *Warp, r isa.Reg) []uint64 {
	if r.IsScalar() {
		return []uint64{w.SRegs[r.Index]}
	}
	out := make([]uint64, isa.WarpSize)
	for lane := range out {
		out[lane] = uint64(w.VRegs[r.Index][lane])
	}
	return out
}

// TestShiftRevertRoundTrip checks the NoOverflow-gated shift inverse on
// values that genuinely do not overflow.
func TestShiftRevertRoundTrip(t *testing.T) {
	in := isa.Instruction{Op: isa.VShl, Dst: isa.V(0),
		Srcs: [isa.MaxSrcs]isa.Operand{isa.R(isa.V(0)), isa.Imm(4)}, NoOverflow: true}
	rev, ok := in.Revertible()
	if !ok {
		t.Fatal("shl !noovf must be revertible")
	}
	prog := &isa.Program{Name: "sh", NumVRegs: 1, NumSRegs: 16,
		Instrs: []isa.Instruction{{Op: isa.SEndpgm}}}
	d := mustNewDevice(TestConfig())
	l, err := d.Launch(LaunchSpec{Prog: prog, NumBlocks: 1, WarpsPerBlock: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := l.Warps[0]
	for lane := 0; lane < isa.WarpSize; lane++ {
		w.VRegs[0][lane] = uint32(lane * 1000) // < 2^28: shift by 4 is exact
	}
	if _, err := d.execute(w, kernelDecoded(t, w, in)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.execute(w, routineDecoded(w, &rev)); err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < isa.WarpSize; lane++ {
		if w.VRegs[0][lane] != uint32(lane*1000) {
			t.Fatalf("lane %d: %d", lane, w.VRegs[0][lane])
		}
	}
}
