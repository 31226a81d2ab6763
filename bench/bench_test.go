package main

import (
	"bufio"
	"encoding/json"
	"maps"
	"os"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesCatalog checks BENCHMARK.json against the workloads and
// metrics the command emits.
func TestSpecMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command emits %d", kind, len(got), len(want))
			return
		}
		for i, d := range got {
			if d.Name != want[i].name || d.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the command %s (%s)", kind, i, d.Name, d.Unit, want[i].name, want[i].unit)
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s: bad metric name %q", kind, d.Name)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: %s has better=%q", kind, d.Name, d.Better)
			}
			if bounded != (d.Bound != nil) || (bounded && (*d.Bound < 0 || *d.Bound > 0.25)) {
				t.Errorf("%s: %s has bound %v", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

// TestSmoke runs every workload at smoke scale, untraced and then traced,
// in this process, and checks what the command relies on: every metric
// is emitted under a valid name, the simulated outcome repeats exactly,
// spans nest, and the CPU profile folds to at most the whole.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seed: 7, scale: "smoke", traceDir: t.TempDir()}
			plain := measure(w, o, time.Now(), false)
			if plain.Failed > 0 {
				t.Fatalf("untraced: %s", plain.Error)
			}
			o.trace = true
			traced := measure(w, o, time.Now(), false)
			if traced.Failed > 0 {
				t.Fatalf("traced: %s", traced.Error)
			}
			if len(plain.Sim) == 0 || !maps.Equal(plain.Sim, traced.Sim) {
				t.Errorf("simulated metrics differ between two runs:\n%v\n%v", plain.Sim, traced.Sim)
			}

			e2e := endToEndMetrics(plain, []*childResult{plain})
			layer := perLayerMetrics(plain, traced, 1)
			for _, set := range []struct {
				got  map[string]metric
				want []metricDef
			}{{e2e, endToEnd}, {layer, perLayer}} {
				if len(set.got) != len(set.want) {
					t.Errorf("emitted %d metrics, want %d", len(set.got), len(set.want))
				}
				for _, d := range set.want {
					m, ok := set.got[d.name]
					if !ok || m.Unit != d.unit || !nameRE.MatchString(d.name) {
						t.Errorf("metric %s: emitted %v, %v", d.name, m, ok)
					}
				}
			}
			for _, d := range endToEnd {
				if !(e2e[d.name].Value > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", d.name, e2e[d.name].Value)
				}
			}

			var sum float64
			for _, l := range cpuLayers {
				sum += layer["cpu."+l+".frac"].Value
			}
			if sum > 1+1e-9 {
				t.Errorf("cpu fractions sum to %v", sum)
			}
			checkSpans(t, traced.Files[0])
		})
	}
}

// checkSpans reads a span file and checks every span has a non-negative
// duration and lies within its parent.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for i, s := range spans {
		if s.ID != i || s.End < s.Start || s.Start < 0 {
			t.Errorf("span %+v: bad id or negative duration", s)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			t.Errorf("span %+v: parent recorded after it", s)
			continue
		}
		if p := spans[s.Parent]; s.Start < p.Start || s.End > p.End || s.Op != p.Op {
			t.Errorf("span %+v lies outside its parent %+v", s, p)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ctxback/internal/sim.(*Device).step":                    "sim",
		"ctxback/internal/gen/sweep.RunSeed":                     "gen",
		"ctxback/internal/harness.(*Runner).runJobs.func1":       "harness",
		"runtime.mallocgc":                                       "runtime",
		"internal/runtime/atomic.(*Uint32).Load":                 "runtime",
		"runtime/internal/syscall.Syscall6":                      "runtime",
		"encoding/json.(*encodeState).marshal":                   "",
		"main.(*tracer).do":                                      "",
		"ctxback/internal/core.Compile[...]":                     "core",
		"ctxback/internal/liveness.Analyze.func2.1":              "liveness",
		"ctxback/internal/snapshot.(*wbuf).u64":                  "snapshot",
		"ctxback/internal/preempt.(*ctxbackTech).PreemptRoutine": "preempt",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
