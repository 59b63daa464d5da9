// Failure drill: exercises the survivability mechanism the paper designs
// for — automatic protection switching inside each subnetwork — on the
// cached planning + sweep path. The program plans an 8-node ring once
// through the Planner, cuts a fibre and shows every protection switch,
// then sweeps single, double and sampled triple failures against the
// same cached plan to contrast the guarantee with its limits.
package main

import (
	"context"
	"fmt"
	"log"

	cyclecover "github.com/cyclecover/cyclecover"
)

func main() {
	const n = 8
	ctx := context.Background()
	planner := cyclecover.NewPlanner()
	instance := cyclecover.AllToAll(n)

	network, err := planner.PlanWDM(ctx, instance)
	if err != nil {
		log.Fatal(err)
	}
	sim := cyclecover.NewSimulator(network)
	fmt.Printf("network: C_%d, %d subnetworks, %d wavelengths\n\n",
		n, len(network.Subnets), network.Wavelengths())

	// Cut the fibre between nodes 2 and 3 (link 2).
	report, err := sim.Fail(cyclecover.Link(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fibre cut on link 2 (nodes 2-3): %d demands unaffected, %d switched to protection, %d lost\n",
		report.Unaffected, len(report.Affected), len(report.Lost))
	for _, rr := range report.Affected {
		fmt.Printf("  %v: subnetwork %d switches %d-link working path → %d-link spare path\n",
			rr.Request, rr.Subnetwork, rr.WorkingLen, rr.SpareLen)
	}

	// Sweep k = 1, 2 and sampled k = 3 against the same cached plan:
	// only the first Simulate call constructs anything.
	single, err := planner.Simulate(ctx, instance, cyclecover.SweepOptions{K: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nall %d single-link failures restored: %v\n",
		single.Sweep.Evaluated, single.Sweep.AllRestored)

	double, err := planner.Simulate(ctx, instance, cyclecover.SweepOptions{K: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("double failures (beyond the design guarantee): mean restoration %.1f%%, worst case %.1f%%\n",
		100*double.Sweep.MeanRestoration, 100*double.Sweep.WorstRestoration)
	worst := double.Sweep.Worst[0]
	fmt.Printf("  worst pair %v loses %d demands; critical links: %v\n",
		worst.Links, worst.Lost, double.Sweep.Critical)

	triple, err := planner.Simulate(ctx, instance, cyclecover.SweepOptions{K: 3, Sample: 20, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sampled triple failures (%d of %d scenarios, seed 1): mean restoration %.1f%%\n",
		triple.Sweep.Planned, triple.Sweep.Scenarios, 100*triple.Sweep.MeanRestoration)

	stats := planner.CacheStats()
	fmt.Printf("\nplan once, sweep many: %d network construction(s), %d cache hits\n",
		stats.Networks.Misses, stats.Networks.Hits)
}
