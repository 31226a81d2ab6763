// Command ctxback runs the CTXBack compiler pass on a kernel and reports
// the selected flashback-points, contexts, and dedicated routines.
//
// Usage:
//
//	ctxback -kernel KM                 # one of the Table-I benchmarks
//	ctxback -asm kernel.s              # or any assembly file
//	ctxback -kernel VA -pc 9           # dump the routines for one PC
//	ctxback -kernel VA -features relaxed,revert
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ctxback/internal/core"
	"ctxback/internal/isa"
	"ctxback/internal/kernels"
)

func main() {
	var (
		kernel   = flag.String("kernel", "", "Table-I benchmark abbreviation (AP, DC, DOT, GE, HS, KM, LRN, MM, MS, MV, RELU, VA)")
		asmFile  = flag.String("asm", "", "assembly file to compile instead of a benchmark")
		pc       = flag.Int("pc", -1, "dump the dedicated routines for this PC")
		features = flag.String("features", "relaxed,revert,osrb", "comma-separated CTXBack features")
		disasm   = flag.Bool("disasm", false, "print the kernel disassembly")
	)
	flag.Parse()

	prog, err := loadProgram(*kernel, *asmFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctxback:", err)
		os.Exit(1)
	}
	feats, err := parseFeatures(*features)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctxback:", err)
		os.Exit(1)
	}
	if *disasm {
		fmt.Println(prog.Disassemble())
	}

	c, err := core.Compile(prog, feats)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctxback:", err)
		os.Exit(1)
	}
	live := c.Live

	if *pc >= 0 {
		dumpPC(c, *pc)
		return
	}

	fmt.Printf("kernel %s: %d instructions, features %s\n", prog.Name, prog.Len(), feats)
	fmt.Printf("%4s %6s %10s %10s %8s %8s  %s\n", "PC", "Q", "live B", "plan B", "re-exec", "reverts", "instruction")
	var sumLive, sumPlan float64
	for p := 0; p < prog.Len(); p++ {
		plan := c.Plans[p]
		lb := live.ContextBytes(p)
		sumLive += float64(lb)
		sumPlan += float64(plan.ContextBytes)
		fmt.Printf("%4d %6d %10d %10d %8d %8d  %s\n",
			p, plan.Q, lb, plan.ContextBytes, plan.ReExecCount,
			len(plan.PreemptReverts)+len(plan.ResumeReverts), prog.At(p).String())
	}
	fmt.Printf("\nmean context: LIVE %.0f B, CTXBack %.0f B (%.1f%% smaller)\n",
		sumLive/float64(prog.Len()), sumPlan/float64(prog.Len()), (1-sumPlan/sumLive)*100)
	fmt.Printf("routine sharing: %d unique preemption routines for %d instructions (%d B transferred vs %d B unshared)\n",
		c.UniqueRoutines, prog.Len(), c.SharedRoutineBytes, c.UnsharedRoutineBytes)
	if len(c.OSRB) > 0 {
		fmt.Printf("OSRB backups: %v (instrumented at %d block entries)\n", c.OSRB, len(c.BackupAt))
	}
}

func loadProgram(kernel, asmFile string) (*isa.Program, error) {
	switch {
	case kernel != "":
		wl, err := kernels.ByAbbrev(strings.ToUpper(kernel), kernels.TestParams())
		if err != nil {
			return nil, err
		}
		return wl.Prog, nil
	case asmFile != "":
		src, err := os.ReadFile(asmFile)
		if err != nil {
			return nil, err
		}
		return isa.Assemble(string(src))
	}
	return nil, fmt.Errorf("need -kernel or -asm (benchmarks: %s)", benchmarkList())
}

func benchmarkList() string {
	all, _ := kernels.All(kernels.TestParams())
	var names []string
	for _, wl := range all {
		names = append(names, wl.Abbrev)
	}
	return strings.Join(names, ", ")
}

func parseFeatures(s string) (core.Feature, error) {
	var f core.Feature
	if s == "" || s == "none" {
		return 0, nil
	}
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "relaxed":
			f |= core.FeatRelaxed
		case "revert":
			f |= core.FeatRevert
		case "osrb":
			f |= core.FeatOSRB
		case "all":
			f |= core.FeatAll
		default:
			return 0, fmt.Errorf("unknown feature %q (relaxed, revert, osrb, all)", part)
		}
	}
	return f, nil
}

func dumpPC(c *core.Compiled, pc int) {
	if pc >= c.Prog.Len() {
		fmt.Fprintf(os.Stderr, "ctxback: pc %d out of range (kernel has %d instructions)\n", pc, c.Prog.Len())
		os.Exit(1)
	}
	plan := c.Plans[pc]
	fmt.Printf("pc %d: %s\n", pc, c.Prog.At(pc).String())
	fmt.Printf("flashback-point: pc %d (window of %d)\n", plan.Q, plan.WindowLen())
	fmt.Printf("context: %d bytes; %d instructions re-execute at resume\n\n", plan.ContextBytes, plan.ReExecCount)
	fmt.Println("dedicated preemption routine:")
	for _, in := range c.PreemptRoutines[pc] {
		fmt.Printf("    %s\n", in.String())
	}
	fmt.Println("dedicated resume routine:")
	for _, in := range c.ResumeRoutines[pc] {
		fmt.Printf("    %s\n", in.String())
	}
}
