package bench

import (
	"context"
	"errors"
	"testing"
)

func TestParallelT1MatchesSerial(t *testing.T) {
	ns := []int{3, 5, 7, 9, 11, 13, 15, 17, 19, 21}
	serial, err := TableT1(context.Background(), ns)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ParallelTableT1Ctx(context.Background(), ns, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, serial[i], parallel[i])
		}
	}
}

func TestParallelT2MatchesSerial(t *testing.T) {
	ns := []int{4, 6, 8, 10, 12}
	serial, err := TableT2(context.Background(), ns)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ParallelTableT2Ctx(context.Background(), ns, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestParallelF2(t *testing.T) {
	rows, err := ParallelTableF2Ctx(context.Background(), []int{5, 8, 11}, 8, 0) // 0 → GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.AllRestored {
			t.Errorf("n=%d: survivability violated", r.N)
		}
	}
}

func TestParallelMapErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	_, err := parallelMap(context.Background(), []int{1, 2, 3, 4}, 2, func(n int) (int, error) {
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
	out, err := parallelMap(context.Background(), ns, 3, func(n int) (int, error) { return n * 10, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range ns {
		if out[i] != n*10 {
			t.Fatalf("order not preserved at %d: %v", i, out)
		}
	}
}

func TestParallelMapDegenerateWorkerCounts(t *testing.T) {
	for _, w := range []int{-1, 0, 1, 100} {
		out, err := parallelMap(context.Background(), []int{2, 4}, w, func(n int) (int, error) { return n, nil })
		if err != nil || len(out) != 2 || out[0] != 2 || out[1] != 4 {
			t.Fatalf("workers=%d: out=%v err=%v", w, out, err)
		}
	}
}

func TestParallelMapCancelledSkipsRows(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	_, err := parallelMap(ctx, []int{1, 2, 3}, 2, func(n int) (int, error) {
		ran++
		return n, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("%d rows ran under a cancelled context", ran)
	}
	// Serial path (workers 1) honours the same contract.
	_, err = parallelMap(ctx, []int{1, 2, 3}, 1, func(n int) (int, error) { return n, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("serial err = %v, want Canceled", err)
	}
}
