package harness

import (
	"fmt"
	"strings"

	"ctxback/internal/kernels"
	"ctxback/internal/preempt"
	"ctxback/internal/sim"
)

// ContentionRow is one point of the switch-engine contention sweep: the
// slowest per-SM switch when n SMs are preempted at the same instant.
type ContentionRow struct {
	PreemptedSMs int
	WorstUs      float64 // worst per-SM preemption latency
	BestUs       float64
}

// ContentionSweep quantifies how context switches contend for the shared
// switch path (§V-A observes switch time "is affected by the bandwidth
// usage of other thread blocks"): preempting several SMs simultaneously
// — as a high-priority multi-block kernel would — serializes their
// context traffic, so the worst-case waiting time grows with the number
// of victims. CTXBack's smaller contexts shrink both ends of the range.
func ContentionSweep(o Options, abbrev string) ([]ContentionRow, error) {
	var rows []ContentionRow
	for n := 1; n <= o.Cfg.NumSMs; n++ {
		row, err := contentionPoint(o, abbrev, n)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func contentionPoint(o Options, abbrev string, preemptSMs int) (ContentionRow, error) {
	params := o.Params
	params.NumBlocks = 4 * o.Cfg.NumSMs
	wl, err := kernels.ByAbbrev(abbrev, params)
	if err != nil {
		return ContentionRow{}, err
	}
	tech, err := preempt.New(preempt.Baseline, wl.Prog)
	if err != nil {
		return ContentionRow{}, err
	}
	d, err := sim.NewDevice(o.Cfg)
	if err != nil {
		return ContentionRow{}, err
	}
	d.AttachRuntime(tech)
	if _, err := wl.Launch(d); err != nil {
		return ContentionRow{}, err
	}
	if err := d.RunToCycle(2001, o.MaxCycles); err != nil {
		return ContentionRow{}, err
	}
	var eps []*sim.Episode
	for sm := 0; sm < preemptSMs; sm++ {
		ep, err := d.Preempt(sm, tech)
		if err != nil {
			return ContentionRow{}, err
		}
		eps = append(eps, ep)
	}
	allSaved := func() bool {
		for _, ep := range eps {
			if !ep.Saved() {
				return false
			}
		}
		return true
	}
	if err := d.RunUntil(allSaved, o.MaxCycles); err != nil {
		return ContentionRow{}, err
	}
	row := ContentionRow{PreemptedSMs: preemptSMs, BestUs: 1e18}
	for _, ep := range eps {
		us := o.Cfg.CyclesToMicros(ep.PreemptLatencyCycles())
		if us > row.WorstUs {
			row.WorstUs = us
		}
		if us < row.BestUs {
			row.BestUs = us
		}
	}
	// Resume and drain so the run ends clean (also exercises multi-SM
	// resume through the shared path).
	for _, ep := range eps {
		if err := d.Resume(ep); err != nil {
			return ContentionRow{}, err
		}
	}
	if err := d.RunUntil(func() bool {
		for _, ep := range eps {
			if !ep.Finished() {
				return false
			}
		}
		return true
	}, o.MaxCycles); err != nil {
		return ContentionRow{}, err
	}
	return row, nil
}

// RenderContention formats the sweep.
func RenderContention(abbrev string, rows []ContentionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Switch-path contention: simultaneous BASELINE preemptions of %s\n", abbrev)
	fmt.Fprintf(&b, "%-14s %16s %16s\n", "preempted SMs", "fastest SM us", "slowest SM us")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 48))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14d %16.2f %16.2f\n", r.PreemptedSMs, r.BestUs, r.WorstUs)
	}
	return b.String()
}
