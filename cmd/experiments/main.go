// Command experiments regenerates every table and figure series of the
// reproduction (DESIGN.md §4) and prints them as text tables; with -out it
// writes the same content to a file. EXPERIMENTS.md is produced from this
// output.
//
// Usage:
//
//	experiments             # standard sweep
//	experiments -quick      # small sweep (CI-sized)
//	experiments -out results.txt
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"github.com/cyclecover/cyclecover/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced sweeps")
	outPath := flag.String("out", "", "also write results to this file")
	flag.Parse()

	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}
	// SIGINT/SIGTERM cancel the sweep context: rows not yet started are
	// skipped and the run fails with the interrupt instead of grinding
	// through the remaining tables.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, w, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, w io.Writer, quick bool) error {
	oddNs := seq(3, 99, 2)
	evenNs := seq(4, 98, 2)
	f1Ns := []int{11, 21, 51, 101, 151, 201}
	f2Ns := []int{5, 6, 8, 9, 12, 15, 21, 33}
	f3Ns := []int{5, 7, 9, 11, 13, 15}
	c1Ns := []int{5, 7, 9, 11, 15, 21, 31}
	t3Ns := []int{3, 4, 5, 6, 7, 8, 10, 12, 16, 20}
	proofLimit := 8
	doubleLimit := 12
	if quick {
		oddNs = seq(3, 21, 2)
		evenNs = seq(4, 20, 2)
		f1Ns = []int{11, 51, 101}
		f2Ns = []int{5, 8, 11}
		f3Ns = []int{5, 9}
		c1Ns = []int{5, 9, 15}
		t3Ns = []int{3, 4, 5, 6}
		proofLimit = 6
		doubleLimit = 8
	}

	section(w, "T1 — Theorem 1: rho(n) for odd n (count, composition, optimality)")
	t1, err := bench.TableT1(ctx, oddNs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, bench.RenderT1(t1))

	section(w, "T2 — Theorem 2: rho(n) for even n (achieved vs theorem)")
	t2, err := bench.TableT2(ctx, evenNs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, bench.RenderT2(t2))

	section(w, "T3 — exact optima by search (rho certified; rho-1 proved infeasible)")
	t3, err := bench.TableT3(ctx, t3Ns, proofLimit)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, bench.RenderT3(t3))

	section(w, "E1 — the paper's worked example on G=C4, I=K4")
	e1 := bench.ExampleK4()
	fmt.Fprintf(w, "tour (1,3,4,2) routable: %v (paper: no)\n", e1.BadTourRoutable)
	fmt.Fprintf(w, "covering {(1,2,3,4),(1,2,4),(1,3,4)} valid: %v with %d cycles; rho(4) = %d\n\n",
		e1.GoodCoveringValid, e1.GoodCoveringSize, e1.RhoOfK4)

	section(w, "C1 — cost of the DRC: covering sizes with vs without routing constraint")
	fmt.Fprintln(w, bench.RenderC1(bench.TableC1(c1Ns)))

	section(w, "C2 — objective comparison: number of cycles (this paper) vs total size (EMZ/GLS)")
	c2, err := bench.TableC2(ctx, c1Ns)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, bench.RenderC2(c2))

	section(w, "F1 — asymptotics: rho(n)/n^2 → 1/8")
	fmt.Fprintln(w, bench.RenderF1(bench.SeriesF1(f1Ns)))

	section(w, "F2 — survivability: single- and double-failure drills")
	f2, err := bench.TableF2(ctx, f2Ns, doubleLimit)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, bench.RenderF2(f2))

	section(w, "F3 — WDM cost profile of planned networks")
	f3, err := bench.TableF3(ctx, f3Ns)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, bench.RenderF3(f3))

	section(w, "X1 — extension: lambda*K_n instances")
	x1, err := bench.TableX1(ctx, []int{7, 9}, []int{1, 2, 3, 4})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, bench.RenderX1(x1))

	section(w, "X2 — extension topologies: grid, torus, tree of rings")
	x2, err := bench.TableX2(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, bench.RenderX2(x2))
	return nil
}

func section(w io.Writer, title string) {
	fmt.Fprintf(w, "== %s ==\n\n", title)
}

func seq(from, to, step int) []int {
	var out []int
	for v := from; v <= to; v += step {
		out = append(out, v)
	}
	return out
}
