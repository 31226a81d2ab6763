package core

import (
	"fmt"

	"ctxback/internal/isa"
)

// CheckInvariants re-validates every chosen plan of a compiled kernel
// with the symbolic plan validator, plus the structural invariants the
// runtime layers rely on. It surfaces the compile-time contract as a
// machine-checkable predicate so harnesses (and fuzzers) can assert it
// before trusting a compilation, and fault-recovery code can rule out a
// mis-compiled plan when diagnosing a failed resume.
func (c *Compiled) CheckInvariants() error {
	n := c.Prog.Len()
	if len(c.Plans) != n || len(c.PreemptRoutines) != n || len(c.ResumeRoutines) != n {
		return fmt.Errorf("core: plan/routine tables sized %d/%d/%d for a %d-instruction program",
			len(c.Plans), len(c.PreemptRoutines), len(c.ResumeRoutines), n)
	}
	v := newValidator(c.Prog, newProgInfo(c.Prog), c.Live)
	for pc, plan := range c.Plans {
		if plan == nil {
			return fmt.Errorf("core: no plan for pc %d", pc)
		}
		if plan.P != pc {
			return fmt.Errorf("core: plan at table slot %d claims signal point %d", pc, plan.P)
		}
		if plan.Q > plan.P || plan.Q < 0 {
			return fmt.Errorf("core: pc %d: flashback-point %d outside [0,%d]", pc, plan.Q, plan.P)
		}
		if w := plan.WindowLen(); w > c.MaxWindow {
			return fmt.Errorf("core: pc %d: window %d exceeds bound %d", pc, w, c.MaxWindow)
		}
		if err := v.validate(plan); err != nil {
			return fmt.Errorf("core: pc %d: %w", pc, err)
		}
	}
	// The global OSRB assignment must be injective: two backed-up
	// registers sharing a spare would clobber each other.
	seen := map[isa.Reg]isa.Reg{}
	for reg, spare := range c.OSRB {
		if prev, dup := seen[spare]; dup {
			return fmt.Errorf("core: OSRB spare %v assigned to both %v and %v", spare, prev, reg)
		}
		seen[spare] = reg
	}
	return nil
}

// RestoreContract returns the register set a resume at pc must
// re-establish before kernel execution continues: the live-in context
// at pc plus the EXEC mask (always restored — a wrong mask silently
// disables lanes). The resume-integrity oracle diffs exactly this set
// against the signal-time snapshot.
func (c *Compiled) RestoreContract(pc int) isa.RegSet {
	set := c.Live.Context(pc) // already a clone, safe to extend
	set.Add(isa.Exec)
	return set
}
