package bench

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestTableT1(t *testing.T) {
	rows, err := TableT1(context.Background(), []int{3, 5, 7, 9, 21})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Valid || !r.Optimal {
			t.Errorf("n=%d: valid=%v optimal=%v", r.N, r.Valid, r.Optimal)
		}
		if r.Constructed != r.Rho || r.C3 != r.TheoremC3 || r.C4 != r.TheoremC4 {
			t.Errorf("n=%d: row %+v disagrees with theorem", r.N, r)
		}
		if r.Slack != 0 {
			t.Errorf("n=%d: odd covering must be a partition", r.N)
		}
	}
	if _, err := TableT1(context.Background(), []int{4}); err == nil {
		t.Error("even n in T1: want error")
	}
	out := RenderT1(rows)
	if !strings.Contains(out, "rho(n)") || !strings.Contains(out, "21") {
		t.Error("render must include headers and data")
	}
}

func TestTableT2(t *testing.T) {
	rows, err := TableT2(context.Background(), []int{4, 6, 8, 10, 24})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Valid || !r.Optimal || r.Achieved != r.Rho || r.Ratio != 1 {
			t.Errorf("n=%d: valid=%v optimal=%v achieved %d, want ρ = %d", r.N, r.Valid, r.Optimal, r.Achieved, r.Rho)
		}
		if r.Method != "even-inductive" {
			t.Errorf("n=%d: method %q, want even-inductive", r.N, r.Method)
		}
		if r.C3+r.C4+r.C5 != r.Achieved {
			t.Errorf("n=%d: C3+C4+C5 = %d+%d+%d, want %d", r.N, r.C3, r.C4, r.C5, r.Achieved)
		}
	}
	if rows[4].C5 != 4 {
		t.Errorf("n=24: %d five-cycles, want 4 (carried from n = 22)", rows[4].C5)
	}
	if _, err := TableT2(context.Background(), []int{5}); err == nil {
		t.Error("odd n in T2: want error")
	}
	if out := RenderT2(rows); !strings.Contains(out, "method") {
		t.Error("render incomplete")
	}
}

func TestTableT3(t *testing.T) {
	rows, err := TableT3(context.Background(), []int{4, 5, 6}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.FoundAtRho {
			t.Errorf("n=%d: no covering found at ρ", r.N)
		}
		if !r.ProvedBelow {
			t.Errorf("n=%d: ρ−1 infeasibility not proved", r.N)
		}
	}
	if out := RenderT3(rows); !strings.Contains(out, "infeasible") {
		t.Error("render incomplete")
	}
}

// TestTablesCancelledReturnNoRows pins the interrupt contract of every
// table that constructs or sweeps: once ctx has fired the table reports
// its error and no rows — a cancelled T3 search proves nothing, so rows
// reading "not found" or "not proved" would be wrong, and a row served
// from the cache after an interrupt is no better.
func TestTablesCancelledReturnNoRows(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name  string
		table func() (int, error)
	}{
		{"T1", func() (int, error) { rows, err := TableT1(ctx, []int{5, 7}); return len(rows), err }},
		{"T2", func() (int, error) { rows, err := TableT2(ctx, []int{6, 8}); return len(rows), err }},
		{"T3", func() (int, error) { rows, err := TableT3(ctx, []int{5, 7}, 6); return len(rows), err }},
		{"C2", func() (int, error) { rows, err := TableC2(ctx, []int{5, 7}); return len(rows), err }},
		{"F2", func() (int, error) { rows, err := TableF2(ctx, []int{5, 8}, 8); return len(rows), err }},
		{"F3", func() (int, error) { rows, err := TableF3(ctx, []int{5, 9}); return len(rows), err }},
		{"X1", func() (int, error) { rows, err := TableX1(ctx, []int{7}, []int{1, 2}); return len(rows), err }},
		{"X2", func() (int, error) { rows, err := TableX2(ctx); return len(rows), err }},
	} {
		rows, err := tc.table()
		if !errors.Is(err, context.Canceled) || rows != 0 {
			t.Errorf("%s under a cancelled context: %d rows, err = %v; want no rows and context.Canceled", tc.name, rows, err)
		}
	}
}

func TestExampleK4(t *testing.T) {
	res := ExampleK4()
	if res.BadTourRoutable {
		t.Error("paper example: (1,3,4,2) must not be routable")
	}
	if !res.GoodCoveringValid || res.GoodCoveringSize != 3 || res.RhoOfK4 != 3 {
		t.Errorf("paper example mismatch: %+v", res)
	}
}

func TestTableC1(t *testing.T) {
	rows := TableC1([]int{5, 9, 15})
	for _, r := range rows {
		if r.GreedyTriangle < r.TriangleNoDRC {
			t.Errorf("n=%d: greedy beats the covering number", r.N)
		}
		if r.PerEdge < r.RhoDRC {
			t.Errorf("n=%d: per-edge naive cannot beat ρ", r.N)
		}
	}
	if out := RenderC1(rows); !strings.Contains(out, "noDRC") {
		t.Error("render incomplete")
	}
}

func TestTableC2(t *testing.T) {
	rows, err := TableC2(context.Background(), []int{5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.OurCycles > r.TriCycles {
			t.Errorf("n=%d: optimal mix must not use more cycles than triangles-only", r.N)
		}
		if r.OurTotalSize < r.SizeLB || r.TriTotalSize < r.SizeLB {
			t.Errorf("n=%d: EMZ lower bound violated", r.N)
		}
		// Odd n: the optimal covering is a partition, so it is also
		// EMZ-optimal (total size = |E|).
		if r.N%2 == 1 && r.OurTotalSize != r.SizeLB {
			t.Errorf("n=%d: odd covering should meet the EMZ bound exactly", r.N)
		}
	}
	if out := RenderC2(rows); !strings.Contains(out, "Σ|C|") {
		t.Error("render incomplete")
	}
}

func TestSeriesF1(t *testing.T) {
	rows := SeriesF1([]int{11, 51, 101, 201})
	for i := 1; i < len(rows); i++ {
		d0 := rows[i-1].Ratio - 0.125
		d1 := rows[i].Ratio - 0.125
		if abs(d1) > abs(d0) {
			t.Errorf("ratio must approach 1/8: %v then %v", rows[i-1], rows[i])
		}
	}
	if out := RenderF1(rows); !strings.Contains(out, "0.12500") {
		t.Error("render incomplete")
	}
}

func TestTableF2(t *testing.T) {
	rows, err := TableF2(context.Background(), []int{5, 8, 11}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.AllRestored {
			t.Errorf("n=%d: single failures must all restore", r.N)
		}
		if r.AffectedPerCut != r.Subnets {
			t.Errorf("n=%d: every cut breaks one arc per subnetwork", r.N)
		}
		if r.N <= 8 && (r.DoubleMean < 0 || r.DoubleWorst > r.DoubleMean) {
			t.Errorf("n=%d: double-failure stats inconsistent: %+v", r.N, r)
		}
	}
	if out := RenderF2(rows); !strings.Contains(out, "2-cut") {
		t.Error("render incomplete")
	}
}

// TestParallelF2 checks that each row TableF2 returns is the row its
// ring size gives when swept alone, in input order, and that every
// single failure restores. (The name is from when the table computed
// its rows concurrently; it is now one loop.)
func TestParallelF2(t *testing.T) {
	ns := []int{5, 8, 11}
	rows, err := TableF2(context.Background(), ns, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ns) {
		t.Fatalf("%d rows for %d ring sizes", len(rows), len(ns))
	}
	for i, n := range ns {
		alone, err := TableF2(context.Background(), []int{n}, 8)
		if err != nil {
			t.Fatal(err)
		}
		if rows[i] != alone[0] {
			t.Errorf("row %d: %+v, swept alone %+v", i, rows[i], alone[0])
		}
		if !rows[i].AllRestored {
			t.Errorf("n=%d: survivability violated", n)
		}
	}
}

// TestTableF3 pins the committed F3 table of EXPERIMENTS.md row for row.
func TestTableF3(t *testing.T) {
	want := []F3Row{
		{N: 5, Subnets: 3, Wavelengths: 6, ADMs: 10, MaxTransit: 2, Cost: 125},
		{N: 7, Subnets: 6, Wavelengths: 12, ADMs: 21, MaxTransit: 6, Cost: 288},
		{N: 9, Subnets: 10, Wavelengths: 20, ADMs: 36, MaxTransit: 12, Cost: 542},
		{N: 11, Subnets: 15, Wavelengths: 30, ADMs: 55, MaxTransit: 20, Cost: 905},
		{N: 13, Subnets: 21, Wavelengths: 42, ADMs: 78, MaxTransit: 30, Cost: 1395},
		{N: 15, Subnets: 28, Wavelengths: 56, ADMs: 105, MaxTransit: 42, Cost: 2030},
	}
	var ns []int
	for _, r := range want {
		ns = append(ns, r.N)
	}
	rows, err := TableF3(context.Background(), ns)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("F3 rows differ from the committed table:\n got %+v\nwant %+v", rows, want)
	}
	if out := RenderF3(rows); !strings.Contains(out, "15  28       56           105   42           2030.0") {
		t.Errorf("render differs from the committed table:\n%s", out)
	}
}

func TestTableX1(t *testing.T) {
	rows, err := TableX1(context.Background(), []int{7}, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Valid {
			t.Errorf("λ=%d invalid", r.Lambda)
		}
		if r.Cycles < r.Bound {
			t.Errorf("λ=%d: cycles below bound", r.Lambda)
		}
	}
	if rows[1].Cycles != 2*rows[0].Cycles {
		t.Error("λ-fold stacking must scale linearly")
	}
	if out := RenderX1(rows); !strings.Contains(out, "lambda") {
		t.Error("render incomplete")
	}
}

func TestTableX2(t *testing.T) {
	rows, err := TableX2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 topology rows, got %d", len(rows))
	}
	for _, r := range rows {
		if !r.Valid {
			t.Errorf("%s: invalid", r.Topology)
		}
	}
	// The torus checkerboard is the exact-cover analogue.
	if !rows[1].Exact {
		t.Error("torus checkerboard must cover each edge exactly once")
	}
	if out := RenderX2(rows); !strings.Contains(out, "torus") {
		t.Error("render incomplete")
	}
}

func TestRenderAlignment(t *testing.T) {
	out := Render([]string{"a", "long-header"}, [][]string{{"123456", "x"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Error("separator must align with header")
	}
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
