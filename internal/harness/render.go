package harness

import (
	"fmt"
	"strings"

	"ctxback/internal/chaos"
	"ctxback/internal/preempt"
)

// RenderTableI formats Table I next to the paper's values.
func RenderTableI(rows []TableIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: Benchmark Specification (measured BASELINE vs paper)\n")
	fmt.Fprintf(&b, "%-6s %-24s %8s %8s %8s %6s | %10s %10s | %10s %10s\n",
		"Abbrev", "Benchmark", "VReg KB", "SReg KB", "LDS KB", "Warps",
		"Preempt us", "Resume us", "Paper P us", "Paper R us")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 122))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-24s %8.2f %8.3f %8.2f %6d | %10.1f %10.1f | %10.1f %10.1f\n",
			r.Abbrev, r.Name, r.VRegKB, r.SRegKB, r.LDSKB, r.Warps,
			r.PreemptUs, r.ResumeUs, r.PaperPreemptUs, r.PaperResumeUs)
	}
	return b.String()
}

// RenderFigure formats one of Figures 7-10 as an aligned table with the
// benchmark columns the paper uses.
func RenderFigure(f *Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)\n", f.Title, f.Unit)
	fmt.Fprintf(&b, "%-18s", "")
	for _, ab := range f.Abbrevs {
		fmt.Fprintf(&b, "%7s", ab)
	}
	fmt.Fprintf(&b, "%8s\n", "MEAN")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 18+7*len(f.Abbrevs)+8))
	for _, s := range f.SeriesBy {
		fmt.Fprintf(&b, "%-18s", s.Label)
		for _, ab := range f.Abbrevs {
			fmt.Fprintf(&b, "%7.3f", s.Values[ab])
		}
		fmt.Fprintf(&b, "%8.3f\n", s.Mean)
	}
	return b.String()
}

// RenderAblation formats the ablation rows.
func RenderAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: CTXBack static context vs BASELINE by enabled technique\n")
	fmt.Fprintf(&b, "%-28s %14s %14s\n", "Features", "Mean ratio", "Reduction")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 58))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %14.3f %13.1f%%\n", r.Label, r.MeanRatio, (1-r.MeanRatio)*100)
	}
	return b.String()
}

// RenderChaos formats the fault-injection sweep: one block per
// (detection mode, fault rate), techniques as rows and kernels as
// columns, each cell a one-letter outcome code.
func RenderChaos(rep *ChaosReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos: fault-injection sweep (seed %d)\n", rep.Opts.Seed)
	fmt.Fprintf(&b, "cells: C clean, R recovered in-episode, F detected -> BASELINE fallback,\n")
	fmt.Fprintf(&b, "       U unrecoverable, S! silent wrong output, - SM drained (skipped)\n")
	type block struct {
		mode string
		rate float64
	}
	var order []block
	cells := map[block]map[preempt.Kind]map[string]string{}
	kinds := map[block][]preempt.Kind{}
	for _, c := range rep.Cells {
		k := block{c.Mode, c.Rate}
		if cells[k] == nil {
			order = append(order, k)
			cells[k] = map[preempt.Kind]map[string]string{}
		}
		if cells[k][c.Kind] == nil {
			kinds[k] = append(kinds[k], c.Kind)
			cells[k][c.Kind] = map[string]string{}
		}
		code := [...]string{"C", "R", "F", "U", "S!"}[c.Outcome]
		if c.Skipped && c.Outcome != chaos.SilentWrong {
			code = "-"
		}
		cells[k][c.Kind][c.Kernel] = code
	}
	for _, blk := range order {
		fmt.Fprintf(&b, "\nmode=%s rate=%.2f\n", blk.mode, blk.rate)
		fmt.Fprintf(&b, "%-18s", "")
		for _, ab := range rep.Kernels {
			fmt.Fprintf(&b, "%5s", ab)
		}
		fmt.Fprintf(&b, "\n%s\n", strings.Repeat("-", 18+5*len(rep.Kernels)))
		for _, kind := range kinds[blk] {
			fmt.Fprintf(&b, "%-18s", kind.String())
			for _, ab := range rep.Kernels {
				fmt.Fprintf(&b, "%5s", cells[blk][kind][ab])
			}
			fmt.Fprintln(&b)
		}
	}
	total := 0
	for _, n := range rep.Counts {
		total += n
	}
	fmt.Fprintf(&b, "\n%d episodes (+%d skipped): %d clean, %d recovered, %d fallback, %d unrecoverable, %d silent-wrong\n",
		total, rep.Skipped, rep.Counts[chaos.Clean], rep.Counts[chaos.Recovered],
		rep.Counts[chaos.Fallback], rep.Counts[chaos.Unrecoverable], rep.Counts[chaos.SilentWrong])
	return b.String()
}

// RenderSummary formats the headline numbers next to the paper's.
func RenderSummary(s Summary) string {
	var b strings.Builder
	row := func(what string, got float64, paper string) {
		fmt.Fprintf(&b, "%-52s %9.1f%%   paper: %s\n", what, got*100, paper)
	}
	fmt.Fprintf(&b, "Headline results (measured vs paper)\n")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 80))
	row("Context reduction, LIVE", s.ContextReductionLive, "37.8%")
	row("Context reduction, CTXBack", s.ContextReductionCTXBack, "61.0%")
	row("Context reduction, CS-Defer", s.ContextReductionCSDefer, "62.1%")
	row("Context reduction, CTXBack+CS-Defer", s.ContextReductionComb, "62.1%")
	fmt.Fprintf(&b, "%-52s %9.2fx   paper: 1.09x\n", "CTXBack context vs minimum (CKPT)", s.RatioToMinimum)
	row("Preemption-time reduction, CTXBack", s.PreemptReductionCTXBack, "63.1%")
	row("Preemption-time reduction, CTXBack+CS-Defer", s.PreemptReductionComb, "65.2%")
	row("CS-Defer preemption latency vs CTXBack (+)", s.CSDeferVsCTXBackLatency, "+34.8%")
	row("Resume-time reduction, CTXBack", s.ResumeReductionCTXBack, "50.0%")
	row("Resume-time reduction, CS-Defer", s.ResumeReductionCSDefer, "65.6%")
	fmt.Fprintf(&b, "%-52s %9.2fx   paper: 3.18x\n", "CKPT resume time vs BASELINE", s.CKPTResumeRatio)
	row("Runtime overhead, CTXBack (OSRB)", s.OverheadCTXBack, "0.41%")
	row("Runtime overhead, CKPT", s.OverheadCKPT, "130%")
	return b.String()
}
