package chaos

import (
	"errors"
	"strings"
	"testing"

	"ctxback/internal/cfg"
	"ctxback/internal/faults"
	"ctxback/internal/isa"
	"ctxback/internal/kernels"
	"ctxback/internal/liveness"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
)

const maxCycles = 2_000_000_000

// goldenCycles runs wl uninterrupted on the test device and returns its
// length in cycles.
func goldenCycles(t *testing.T, wl *kernels.Workload) int64 {
	t.Helper()
	d, err := sim.NewDevice(sim.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wl.Launch(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	return d.Now()
}

// TestOracleDeterministicDetail: with two live registers diverged, the
// oracle reports the first in (class, index) order, the same on every
// run, whether or not the diverged vector's masked-out lanes escape.
func TestOracleDeterministicDetail(t *testing.T) {
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
	for _, esc := range []isa.RegSet{{}, isa.NewRegSet(isa.V(5))} {
		var first string
		for run := 0; run < 20; run++ {
			var ie *sim.IntegrityError
			if err := Diff(w, snap, live, esc, 2); !errors.As(err, &ie) {
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
}

// TestOracleNoFalsePositive runs fault-free episodes of the 12 quick
// kernels under the six paper techniques at three signal points with
// the oracle installed. A resumed warp may hold garbage only where the
// program can no longer observe it, so the oracle must never fire and
// every output must verify.
func TestOracleNoFalsePositive(t *testing.T) {
	all, err := kernels.All(kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range all {
		t.Run(wl.Abbrev, func(t *testing.T) {
			t.Parallel()
			g, err := cfg.Build(wl.Prog)
			if err != nil {
				t.Fatal(err)
			}
			golden := goldenCycles(t, wl)
			job := Job{Cfg: sim.TestConfig(), Workload: wl, MaxCycles: maxCycles,
				Oracle: Oracle(liveness.Analyze(g), wl.WarpsPerBlock)}
			preempted := 0
			for _, kind := range preempt.Kinds() {
				for _, frac := range []float64{0.15, 0.5, 0.85} {
					job.Signal = int64(frac * float64(golden))
					run, err := job.Episode(kind, nil)
					if err != nil {
						t.Fatalf("%v@%.2f: %v", kind, frac, err)
					}
					if run.Detected != nil {
						t.Errorf("%v@%.2f: fault-free episode detected %v", kind, frac, run.Detected)
					}
					if run.VerifyErr != nil {
						t.Errorf("%v@%.2f: output: %v", kind, frac, run.VerifyErr)
					}
					if !run.Skipped {
						preempted++
					}
				}
			}
			if preempted == 0 {
				t.Error("every episode drained before its signal; the oracle never ran")
			}
		})
	}
}

// TestLadderClimbsToFaultFree: at fault rate 1 every preemption signal
// is lost, so the episode ends in an in-band detection once the re-raise
// bound runs out, the salted rung loses its signals the same way, and
// the fault-free rung completes.
func TestLadderClimbsToFaultFree(t *testing.T) {
	wl, err := kernels.ByAbbrev("VA", kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Cfg: sim.TestConfig(), Workload: wl, MaxCycles: maxCycles,
		Signal: int64(SignalFrac * float64(goldenCycles(t, wl)))}
	fc := faults.Preset(1, 1)
	run, err := job.Episode(preempt.CTXBack, &fc)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(run.Detected, sim.ErrSignalLost) || run.ReRaised != MaxSignalAttempts {
		t.Fatalf("detected %v after %d lost signals, want ErrSignalLost after %d", run.Detected, run.ReRaised, MaxSignalAttempts)
	}
	res, err := job.Settle(run, fc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Fallback || res.FallbackAttempts != int(FaultFreeRung) || res.Detected != run.Detected.Error() {
		t.Errorf("settled %+v, want a fallback on the fault-free rung", res)
	}
}

// TestSettleFold pins the fold of episodes that need no ladder.
func TestSettleFold(t *testing.T) {
	bad := errors.New("output differs")
	for _, c := range []struct {
		run  Run
		want Outcome
	}{
		{Run{}, Clean},
		{Run{Absorbed: true}, Recovered},
		{Run{Skipped: true, Absorbed: true}, Clean},
		{Run{VerifyErr: bad}, SilentWrong},
		{Run{Skipped: true, VerifyErr: bad}, SilentWrong},
		{Run{Absorbed: true, VerifyErr: bad}, SilentWrong},
	} {
		res, err := Job{}.Settle(c.run, faults.Config{})
		if err != nil || res.Outcome != c.want || res.Skipped != c.run.Skipped {
			t.Errorf("Settle(%+v) = %+v, %v; want outcome %v", c.run, res, err, c.want)
		}
	}
}
