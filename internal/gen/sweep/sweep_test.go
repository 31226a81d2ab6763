package sweep

import (
	"strings"
	"testing"

	"ctxback/internal/preempt"
)

// TestDifferentialSweep is the tier-1 slice of the generated-corpus
// differential sweep: 64 seeds, all 8 techniques, every oracle sampled
// (scan lockstep, resume integrity, snapshot round-trip, chaos).
// The full ≥1000-seed run is `make gen-smoke` / cmd/genrun.
func TestDifferentialSweep(t *testing.T) {
	rep, err := Run(0, 64, 8, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Error(f.String())
	}
	if rep.Passed != rep.Seeds {
		t.Fatalf("%d of %d seeds failed\n%s", rep.Seeds-rep.Passed, rep.Seeds, rep.Summary())
	}
	// Every technique must actually pass episodes — a sweep that skips
	// or drains everything proves nothing.
	for _, k := range preempt.ExtendedKinds() {
		c := rep.PerKind[k]
		if c == nil || c.Pass == 0 {
			t.Errorf("%v: no passing episodes\n%s", k, rep.Summary())
		}
		if c != nil && c.Fail > 0 {
			t.Errorf("%v: %d failing episodes", k, c.Fail)
		}
	}
	// And every sampled oracle must have run.
	if rep.ScanRuns == 0 || rep.IntegrityRuns == 0 ||
		rep.SnapshotRuns == 0 || rep.ChaosRuns == 0 {
		t.Fatalf("an oracle never ran: %s", rep.Summary())
	}
	t.Log("\n" + rep.Summary())
}

// TestSweepDeterministicAcrossProcs pins the reproducibility of the
// report itself: the sweep is a deterministic function of (start, n,
// options) and must render byte-identically at every parallelism.
func TestSweepDeterministicAcrossProcs(t *testing.T) {
	opt := DefaultOptions()
	var sums [2]string
	for i, procs := range []int{1, 8} {
		rep, err := Run(0, 32, procs, opt)
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = rep.Summary()
	}
	if serial, parallel := sums[0], sums[1]; serial != parallel {
		t.Fatalf("summary differs across -procs:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	if !strings.Contains(sums[0], "passed 32") {
		t.Fatalf("determinism fixture regressed:\n%s", sums[0])
	}
}
