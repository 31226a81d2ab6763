package preempt

import (
	"testing"

	"ctxback/internal/kernels"
)

// TestEveryTechniqueNamesItsPhases pins Runtime.PhaseNames: each of
// the eight techniques labels all four canonical phases, so traces never
// fall back to the neutral defaults and never carry empty span names.
func TestEveryTechniqueNamesItsPhases(t *testing.T) {
	wl, err := kernels.ByAbbrev("VA", kernels.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range ExtendedKinds() {
		tech, err := New(kind, wl.Prog)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		names := tech.PhaseNames()
		for phase, name := range map[string]string{
			"Drain": names.Drain, "Save": names.Save,
			"Restore": names.Restore, "Replay": names.Replay,
		} {
			if name == "" {
				t.Errorf("%v: empty %s phase name", kind, phase)
			}
		}
	}
}
