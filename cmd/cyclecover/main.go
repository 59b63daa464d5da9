// Command cyclecover generates, verifies and prints DRC cycle coverings.
//
// Usage:
//
//	cyclecover -n 9                       # optimal covering of K_9
//	cyclecover -n 10 -json                # machine-readable output
//	cyclecover -n 12 -demand hub:0        # greedy covering of hubbed demand
//	cyclecover -n 8 -demand lambda:2      # covering of 2K_8
//	cyclecover -n 14 -demand random:0.3:7 # random demand, density 0.3, seed 7
//	cyclecover -n 12 -strategy exact      # force one construction strategy
//	cyclecover -n 20 -strategy portfolio -timeout 5s
//	cyclecover -n 11 -delta add:0:4       # incremental replan after a change
//	cyclecover -n 10 -demand petersen     # shortest cycle cover of a snark
//	cyclecover -n 28 -demand flower:7     # flower snark J7, provably optimal
//
// General-topology demands (petersen, blanusa:<1|2>, flower:<k>,
// prism:<k>, cubic:<seed>, edges:<u-v,...>, adj:<nbrs;...>) switch the
// objective to the shortest cycle cover of the host graph: the cover is
// judged by total edge count against the counting lower bound, not by
// cycle count against ρ(n).
//
// -strategy selects a construction path from the strategy registry
// (closed-form, exact, repair, greedy, or portfolio to try them all);
// without it the default pipeline picks by demand class. -timeout bounds
// the construction: on expiry the search is cancelled mid-branch and the
// command exits non-zero.
//
// -delta switches to incremental replanning: the -n/-demand instance is
// planned as the parent, the delta (add:<u>:<v> | remove:<u>:<v> |
// fail:<u>:<v> | set:<u>:<v>:<m>) is applied to its demand, and the
// child is planned by patching the parent covering — the same path
// POST /plan/delta serves — with the cold plan answering instead when
// the patch is larger.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	cyclecover "github.com/cyclecover/cyclecover"
)

type output struct {
	N        int     `json:"n"`
	Demand   string  `json:"demand"`
	Strategy string  `json:"strategy,omitempty"`
	Cycles   [][]int `json:"cycles"`
	Size     int     `json:"size"`
	Rho      int     `json:"rho,omitempty"`
	// Length and SCCLowerBound report the shortest-cycle-cover objective
	// for general-topology demands; zero for ring demands.
	Length        int  `json:"length,omitempty"`
	SCCLowerBound int  `json:"sccLowerBound,omitempty"`
	Optimal       bool `json:"optimal"`
	Triangles     int  `json:"c3"`
	Quads         int  `json:"c4"`
	Slack         int  `json:"slack"`
	Valid         bool `json:"valid"`
}

func main() {
	n := flag.Int("n", 9, "ring size (>= 3)")
	demandSpec := flag.String("demand", "alltoall",
		"demand: alltoall | lambda:<k> | hub:<node> | neighbors | random:<density>:<seed> | petersen | blanusa:<1|2> | flower:<k> | prism:<k> | cubic:<seed> | edges:<u-v,...> | adj:<nbrs;...>")
	strategy := flag.String("strategy", "",
		"construction strategy: "+strings.Join(cyclecover.Strategies(), " | ")+" (default: pick by demand class)")
	timeout := flag.Duration("timeout", 0, "construction deadline; expiry cancels the search mid-branch (0 = none)")
	deltaSpec := flag.String("delta", "",
		"incremental replan: apply a delta (add:<u>:<v> | remove:<u>:<v> | fail:<u>:<v> | set:<u>:<v>:<m>) to the planned instance and repair its covering")
	asJSON := flag.Bool("json", false, "emit JSON")
	quiet := flag.Bool("quiet", false, "suppress per-cycle listing")
	flag.Parse()

	in, err := parseDemand(*n, *demandSpec)
	if err != nil {
		fatal(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *deltaSpec != "" {
		runDelta(ctx, in, *strategy, *deltaSpec, *asJSON, *quiet)
		return
	}

	var cv *cyclecover.Covering
	if *strategy != "" {
		cv, err = cyclecover.CoverInstanceStrategy(ctx, in, *strategy)
	} else {
		cv, err = cyclecover.CoverInstance(ctx, in)
	}
	if err != nil {
		fatal(err)
	}
	out, verifyErr := report(*n, in, *strategy, cv)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("demand: %s\n", in.Name)
	if *strategy != "" {
		fmt.Printf("strategy: %s\n", *strategy)
	}
	if in.IsGeneral() {
		fmt.Printf("shortest cycle cover: %d cycles, total length %d (lower bound %d)\n",
			out.Size, out.Length, out.SCCLowerBound)
		if out.Optimal {
			fmt.Println("provably optimal: meets the counting lower bound")
		}
	} else {
		fmt.Println(cyclecover.Describe(cv))
		if in.IsAllToAll() {
			fmt.Printf("rho(%d) = %d, optimal certified: %v\n", *n, out.Rho, out.Optimal)
		}
	}
	if verifyErr != nil {
		fmt.Printf("VERIFY FAILED: %v\n", verifyErr)
		os.Exit(1)
	}
	if in.IsGeneral() {
		fmt.Println("verified: every cycle a closed walk on host edges, every host edge covered")
	} else {
		fmt.Println("verified: every request covered, every cycle DRC-routable")
	}
	if !*quiet {
		for i, c := range cv.Cycles {
			fmt.Printf("  cycle %3d: %v\n", i, c)
		}
	}
}

// report summarises a covering of in for both output modes, and returns
// the verifier's verdict on it. A covering is optimal when it meets its
// lower bound: ρ(n) cycles for K_n, whatever spec named the demand, or
// the counting bound on total length for a general host.
func report(n int, in cyclecover.Instance, strategy string, cv *cyclecover.Covering) (output, error) {
	verifyErr := cyclecover.Verify(cv, in)
	out := output{
		N:        n,
		Demand:   in.Name,
		Strategy: strategy,
		Size:     cv.Size(),
		Valid:    verifyErr == nil,
	}
	if in.IsGeneral() {
		out.Length = cv.TotalLength()
		out.SCCLowerBound = cyclecover.SCCLowerBound(in)
		out.Optimal = out.Length == out.SCCLowerBound
	} else {
		out.Triangles = cv.NumTriangles()
		out.Quads = cv.NumQuads()
		out.Slack = cv.DuplicateSlots()
		if in.IsAllToAll() {
			out.Rho = cyclecover.Rho(n)
			out.Optimal = out.Size == out.Rho
		}
	}
	for _, c := range cv.Cycles {
		out.Cycles = append(out.Cycles, c.Vertices())
	}
	return out, verifyErr
}

// deltaOutput is the JSON shape of a -delta run.
type deltaOutput struct {
	Parent   string  `json:"parent"`
	Delta    string  `json:"delta"`
	Child    string  `json:"child"`
	N        int     `json:"n"`
	Cycles   [][]int `json:"cycles"`
	Size     int     `json:"size"`
	Method   string  `json:"method"`
	Repaired bool    `json:"repaired"`
	Optimal  bool    `json:"optimal"`
	Valid    bool    `json:"valid"`
}

// runDelta plans the parent instance through a cached planner, applies
// the delta and replans incrementally — the parent patched, or the cold
// plan when that is smaller.
func runDelta(ctx context.Context, in cyclecover.Instance, strategy, deltaSpec string, asJSON, quiet bool) {
	d, err := cyclecover.ParseDelta(deltaSpec)
	if err != nil {
		fatal(err)
	}
	p := cyclecover.NewPlanner(cyclecover.WithStrategy(strategy))
	if _, err := p.CoverInstance(ctx, in); err != nil {
		fatal(fmt.Errorf("planning parent: %w", err))
	}
	pd, err := p.PlanDelta(ctx, p.SignatureOf(in), d)
	if err != nil {
		fatal(err)
	}
	verifyErr := cyclecover.Verify(pd.Covering, pd.Child)

	if asJSON {
		out := deltaOutput{
			Parent:   pd.ParentSignature,
			Delta:    d.String(),
			Child:    pd.Signature,
			N:        pd.Child.N(),
			Size:     pd.Covering.Size(),
			Method:   pd.Method,
			Repaired: pd.Repaired,
			Optimal:  pd.Optimal,
			Valid:    verifyErr == nil,
		}
		for _, c := range pd.Covering.Cycles {
			out.Cycles = append(out.Cycles, c.Vertices())
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("parent: %s (%s)\n", in.Name, pd.ParentSignature)
	fmt.Printf("delta:  %s -> child %s\n", d, pd.Signature)
	fmt.Println(cyclecover.Describe(pd.Covering))
	fmt.Printf("method: %s (repaired: %v)\n", pd.Method, pd.Repaired)
	if verifyErr != nil {
		fmt.Printf("VERIFY FAILED: %v\n", verifyErr)
		os.Exit(1)
	}
	fmt.Println("verified: every request covered, every cycle DRC-routable")
	if !quiet {
		for i, c := range pd.Covering.Cycles {
			fmt.Printf("  cycle %3d: %v\n", i, c)
		}
	}
}

func parseDemand(n int, spec string) (cyclecover.Instance, error) {
	return cyclecover.ParseInstance(n, spec)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cyclecover:", err)
	os.Exit(1)
}
