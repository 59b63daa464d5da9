// Demand study: coverings for the non-uniform traffic patterns the
// machinery must also serve — hubbed access traffic, neighbour-only metro
// traffic, a random enterprise matrix, and the λK_n extension — each built
// and verified through the public API, with the all-to-all optimum as the
// reference point. Every construction runs under a deadline through the
// context-aware API, and the strategy portfolio is checked against the
// default pipeline: the portfolio must reproduce it exactly (the
// determinism rule prefers the closed forms at equal cost), which the
// study asserts per pattern.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	cyclecover "github.com/cyclecover/cyclecover"
)

func main() {
	const n = 12

	// A study is interactive work: bound it. The deadline propagates into
	// every construction search — branch-and-bound stops within one node
	// expansion of expiry rather than running to completion.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	random, err := cyclecover.RandomInstance(n, 0.35, 42)
	if err != nil {
		log.Fatal(err)
	}
	patterns := []cyclecover.Instance{
		cyclecover.AllToAll(n),
		cyclecover.Hub(n, 0),
		cyclecover.Neighbors(n),
		random,
		cyclecover.LambdaAllToAll(n, 2),
	}

	fmt.Printf("coverings over C_%d (ρ(%d) = %d for the full exchange)\n\n", n, n, cyclecover.Rho(n))
	fmt.Printf("%-28s  %9s  %7s  %5s  %5s  %9s\n", "demand", "requests", "cycles", "C3", "C4", "portfolio")
	for _, in := range patterns {
		covering, err := cyclecover.CoverInstance(ctx, in)
		if err != nil {
			log.Fatal(err)
		}
		if err := cyclecover.Verify(covering, in); err != nil {
			log.Fatalf("%s: %v", in.Name, err)
		}
		// The portfolio tries closed-form, exact and greedy in priority
		// order under one context; its deterministic winner
		// matches the pipeline — not just in size but cycle for cycle.
		pf, err := cyclecover.CoverInstanceStrategy(ctx, in, "portfolio")
		if err != nil {
			log.Fatalf("%s: portfolio: %v", in.Name, err)
		}
		agree := "= pipeline"
		if !sameCycles(pf, covering) {
			agree = fmt.Sprintf("%d cycles!", pf.Size())
		}
		fmt.Printf("%-28s  %9d  %7d  %5d  %5d  %9s\n",
			in.Name, in.Requests(), covering.Size(),
			covering.NumTriangles(), covering.NumQuads(), agree)
	}

	fmt.Println()
	fmt.Println("every covering above re-verified: DRC routing + full coverage ✓")
}

// sameCycles compares two coverings as multisets of canonical cycles.
func sameCycles(a, b *cyclecover.Covering) bool {
	if a.Size() != b.Size() {
		return false
	}
	keys := func(cv *cyclecover.Covering) []string {
		out := make([]string, 0, cv.Size())
		for _, c := range cv.Cycles {
			out = append(out, c.Key())
		}
		sort.Strings(out)
		return out
	}
	ka, kb := keys(a), keys(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
