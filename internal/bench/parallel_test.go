package bench

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestParallelF2 checks that TableF2's concurrent rows are the rows
// each ring size gives when swept alone, in input order, and that every
// single failure restores.
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

func TestParallelMapErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	_, err := parallelMap(context.Background(), []int{1, 2, 3, 4}, func(n int) (int, error) {
		if n == 3 {
			return 0, boom
		}
		return n * n, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestParallelMapOrderPreserved(t *testing.T) {
	ns := []int{9, 3, 7, 5, 11, 13}
	out, err := parallelMap(context.Background(), ns, func(n int) (int, error) { return n * 10, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range ns {
		if out[i] != n*10 {
			t.Fatalf("order not preserved at %d: %v", i, out)
		}
	}
}

// TestParallelMapDegenerateWorkerCounts covers inputs shorter than
// GOMAXPROCS, where the worker count drops to len(ns): no workers for
// an empty sweep, one for a single row.
func TestParallelMapDegenerateWorkerCounts(t *testing.T) {
	for _, ns := range [][]int{{}, {2}, {2, 4}} {
		out, err := parallelMap(context.Background(), ns, func(n int) (int, error) { return n, nil })
		if err != nil || len(out) != len(ns) {
			t.Fatalf("ns=%v: out=%v err=%v", ns, out, err)
		}
		for i, n := range ns {
			if out[i] != n {
				t.Fatalf("ns=%v: out=%v", ns, out)
			}
		}
	}
}

func TestParallelMapCancelledSkipsRows(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	_, err := parallelMap(ctx, []int{1, 2, 3}, func(n int) (int, error) {
		ran.Add(1)
		return n, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d rows ran under a cancelled context", n)
	}
}
