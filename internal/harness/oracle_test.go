package harness

import (
	"errors"
	"strings"
	"testing"

	"ctxback/internal/chaos"
	"ctxback/internal/isa"
	"ctxback/internal/sim"
)

// TestChaosOracleDeterministicDetail: with two live registers diverged,
// the resume-integrity oracle the chaos experiment installs
// (chaos.Oracle, comparing with chaos.Diff) reports the first in
// (class, index) order, the same on every run.
func TestChaosOracleDeterministicDetail(t *testing.T) {
	regs := func() [][]uint32 {
		v := make([][]uint32, 8)
		for i := range v {
			v[i] = make([]uint32, isa.WarpSize)
		}
		return v
	}
	w := &sim.Warp{ID: 1, PC: 4, VRegs: regs(), SRegs: make([]uint64, 8), Exec: ^uint64(0)}
	snap := &sim.ArchSnapshot{PC: 4, VRegs: regs(), SRegs: make([]uint64, 8), Exec: ^uint64(0)}
	w.VRegs[5][0] = 1
	w.SRegs[3] = 7
	live := isa.NewRegSet(isa.V(1), isa.V(5), isa.S(0), isa.S(3), isa.Exec)
	var first string
	for run := 0; run < 20; run++ {
		var ie *sim.IntegrityError
		if err := chaos.Diff(w, snap, live, isa.RegSet{}, 2); !errors.As(err, &ie) {
			t.Fatalf("run %d: err = %v, want an IntegrityError", run, err)
		}
		if run == 0 {
			first = ie.Detail
		} else if ie.Detail != first {
			t.Fatalf("run %d reported %q, run 0 %q", run, ie.Detail, first)
		}
	}
	if !strings.HasPrefix(first, "s3 = ") {
		t.Errorf("detail %q, want the scalar s3 (scalars sort before vectors)", first)
	}
}
