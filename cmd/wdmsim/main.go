// Command wdmsim plans a survivable WDM ring and drives k-failure
// drills against it on the parallel sweep engine: exhaustive sweeps for
// k ≤ 2, deterministically sampled sweeps for k ≥ 3, all through the
// same cached planning path the cycled service serves (POST /simulate).
//
// Usage:
//
//	wdmsim -n 11                      # plan + sweep all single-link failures
//	wdmsim -n 11 -fail 3              # fail one specific link
//	wdmsim -n 11 -fail 3,7            # simultaneous double failure
//	wdmsim -n 9 -k 2                  # exhaustive double-failure sweep
//	wdmsim -n 16 -k 3 -sample 500     # seeded sample of triple failures
//	wdmsim -n 12 -demand hub:0 -strategy greedy -timeout 2s
//
// -seed reproduces a sampled sweep exactly; -workers bounds the sweep's
// parallelism (the aggregate report is identical for every worker
// count); -timeout bounds planning and sweeping together, mirroring the
// service's -plan-timeout.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	cyclecover "github.com/cyclecover/cyclecover"
)

func main() {
	n := flag.Int("n", 11, "ring size (>= 3)")
	demand := flag.String("demand", "alltoall", "demand spec: alltoall | lambda:<k> | hub:<node> | neighbors | random:<density>:<seed>")
	strategy := flag.String("strategy", "", "construction strategy (see cyclecover.Strategies); empty = default pipeline")
	failSpec := flag.String("fail", "", "comma-separated links to fail (skips the sweep)")
	k := flag.Int("k", 1, "failure multiplicity per sweep scenario")
	sample := flag.Int("sample", 0, "max sampled scenarios for k >= 3 (0 = library default)")
	seed := flag.Int64("seed", 0, "scenario sampler seed (k >= 3)")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "deadline for planning + sweeping (0 = none)")
	flag.Parse()

	in, err := cyclecover.ParseInstance(*n, *demand)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var opts []cyclecover.PlannerOption
	if *strategy != "" {
		opts = append(opts, cyclecover.WithStrategy(*strategy))
	}
	planner := cyclecover.NewPlanner(opts...)

	if *failSpec != "" {
		links, err := parseLinks(*failSpec)
		if err != nil {
			fatal(err)
		}
		nw, err := planner.PlanWDM(ctx, in)
		if err != nil {
			fatal(err)
		}
		printPlan(*n, nw)
		rep, err := cyclecover.NewSimulator(nw).Fail(links...)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("failed links %v: %d unaffected, %d rerouted, %d lost (restoration %.4f)\n",
			rep.Failed, rep.Unaffected, len(rep.Affected), len(rep.Lost), rep.RestorationRate())
		for _, rr := range rep.Affected {
			fmt.Printf("  reroute %v: subnetwork %d, working %d links → spare %d links\n",
				rr.Request, rr.Subnetwork, rr.WorkingLen, rr.SpareLen)
		}
		for _, lost := range rep.Lost {
			fmt.Printf("  LOST %v\n", lost)
		}
		return
	}

	sim, err := planner.Simulate(ctx, in, cyclecover.SweepOptions{
		K:       *k,
		Sample:  *sample,
		Seed:    *seed,
		Workers: *workers,
	})
	if err != nil {
		fatal(err)
	}
	printPlan(*n, sim.Network)
	printSweep(sim.Sweep)
}

func printPlan(n int, nw *cyclecover.Network) {
	fmt.Printf("planned C_%d: %d subnetworks, %d wavelengths, %d ADMs, max transit %d, cost %.1f\n",
		n, len(nw.Subnets), nw.Wavelengths(), nw.ADMCount(), nw.MaxTransit(),
		cyclecover.DefaultCostModel().Cost(nw))
}

func printSweep(sw cyclecover.SweepResult) {
	scope := "exhaustive"
	switch {
	case sw.Sampled:
		scope = fmt.Sprintf("sampled %d of %d (seed %d)", sw.Planned, sw.Scenarios, sw.Seed)
	case !sw.Complete:
		scope = fmt.Sprintf("budget-cut to %d of %d", sw.Planned, sw.Scenarios)
	}
	fmt.Printf("%d-failure sweep, %s: all restored = %v\n", sw.K, scope, sw.AllRestored)
	fmt.Printf("  restoration mean %.4f worst %.4f; %d reroutes, %d lost over %d scenarios\n",
		sw.MeanRestoration, sw.WorstRestoration, sw.TotalAffected, sw.TotalLost, sw.Evaluated)
	fmt.Printf("  heaviest reroute load: scenario %v affects %d requests; max spare path %d links\n",
		sw.MostAffected.Links, sw.MostAffected.Affected, sw.MaxSpareLen)
	for _, worst := range sw.Worst {
		fmt.Printf("  worst case: links %v lose %d of %d demands (rate %.4f)\n",
			worst.Links, worst.Lost, worst.Lost+worst.Affected+worst.Unaffected, worst.Rate)
	}
	if len(sw.Critical) > 0 {
		parts := make([]string, 0, len(sw.Critical))
		for _, c := range sw.Critical {
			parts = append(parts, fmt.Sprintf("%d(%d)", c.Link, c.LostDemands))
		}
		fmt.Printf("  critical links (lost demands): %s\n", strings.Join(parts, " "))
	}
}

func parseLinks(spec string) ([]cyclecover.Link, error) {
	var links []cyclecover.Link
	for _, part := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad link %q", part)
		}
		links = append(links, cyclecover.Link(v))
	}
	return links, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wdmsim:", err)
	os.Exit(1)
}
