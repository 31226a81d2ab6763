package harness

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// diffGolden fails t unless got equals testdata/<name> at the
// repository root byte for byte, naming the first line that differs.
func diffGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile("../../testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(g), len(w)) {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s: line %d is\n\t%q\nwant\n\t%q", name, i+1, gl, wl)
		}
	}
}

// TestQuickSweepGolden renders the quick sweep in-process, block by
// block as `benchtab -quick` prints it, and diffs it against
// testdata/quick_sweep.golden. Table I and Figs 8-10 are simulated
// episodes, so any change to a kernel's simulated timing shows here.
func TestQuickSweepGolden(t *testing.T) {
	r := NewRunner(QuickOptions())
	var b strings.Builder
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	rows, err := r.TableI()
	must(err)
	fmt.Fprintln(&b, RenderTableI(rows))
	f7, err := r.Fig7()
	must(err)
	fmt.Fprintln(&b, RenderFigure(f7))
	f8, f9, err := r.MeasureDynamic()
	must(err)
	fmt.Fprintln(&b, RenderFigure(f8))
	fmt.Fprintln(&b, RenderFigure(f9))
	f10, err := r.Fig10()
	must(err)
	fmt.Fprintln(&b, RenderFigure(f10))
	abl, err := r.Ablation()
	must(err)
	fmt.Fprintln(&b, RenderAblation(abl))
	fmt.Fprintln(&b, RenderSummary(Summarize(f7, f8, f9, f10)))
	diffGolden(t, "quick_sweep.golden", b.String())
}

// TestChaosSmokeGolden renders the quick fault-injection sweep at rate
// 0.2, as `benchtab -quick -chaos -faults 0.2` prints it, and diffs it
// against testdata/chaos_smoke.golden.
func TestChaosSmokeGolden(t *testing.T) {
	co := DefaultChaosOptions()
	co.Rates = []float64{0.2}
	rep, err := NewRunner(QuickOptions()).Chaos(co)
	if err != nil {
		t.Fatal(err)
	}
	diffGolden(t, "chaos_smoke.golden", RenderChaos(rep)+"\n")
}
