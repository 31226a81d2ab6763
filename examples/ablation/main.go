// Ablation: quantify each of CTXBack's three techniques (paper §III) on
// the Table-I kernels — strict flashback condition only, plus the
// relaxed condition (Algorithm 1), plus instruction reverting
// (Algorithm 2), plus on-chip scalar register backup.
package main

import (
	"fmt"
	"log"

	"ctxback/internal/core"
	"ctxback/internal/kernels"
)

func main() {
	params := kernels.EvalParams()
	combos := []struct {
		label string
		feats core.Feature
	}{
		{"strict condition", 0},
		{"+relaxed (Alg. 1)", core.FeatRelaxed},
		{"+reverting (Alg. 2)", core.FeatRelaxed | core.FeatRevert},
		{"+OSRB (full CTXBack)", core.FeatAll},
	}

	all, err := kernels.All(params)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Mean per-instruction register context (bytes), by enabled technique")
	fmt.Printf("%-22s", "kernel")
	for _, c := range combos {
		fmt.Printf("%22s", c.label)
	}
	fmt.Printf("%10s\n", "LIVE")

	for _, wl := range all {
		fmt.Printf("%-22s", wl.Abbrev)
		var liveMean float64
		for _, combo := range combos {
			c, err := core.Compile(wl.Prog, combo.feats)
			if err != nil {
				log.Fatalf("%s/%s: %v", wl.Abbrev, combo.label, err)
			}
			var sum float64
			for pc := 0; pc < wl.Prog.Len(); pc++ {
				sum += float64(c.Plans[pc].ContextBytes)
			}
			fmt.Printf("%22.0f", sum/float64(wl.Prog.Len()))
			if combo.feats == 0 {
				live := c.Live
				for pc := 0; pc < wl.Prog.Len(); pc++ {
					liveMean += float64(live.ContextBytes(pc))
				}
				liveMean /= float64(wl.Prog.Len())
			}
		}
		fmt.Printf("%10.0f\n", liveMean)
	}
	fmt.Println("\nEach column adds one of the paper's techniques; the strict condition")
	fmt.Println("alone rarely beats LIVE, while the three together find flashback-points")
	fmt.Println("whose contexts approach the per-block minima.")
}
