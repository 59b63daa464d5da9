package cache

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/cyclecover/cyclecover/internal/cover"
	"github.com/cyclecover/cyclecover/internal/graph"
	"github.com/cyclecover/cyclecover/internal/instance"
)

func TestSnapshotRoundTrip(t *testing.T) {
	src := New(32)
	for _, n := range []int{7, 8, 12} {
		if _, _, err := src.CoverAllToAllCtx(context.Background(), n, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := src.CoverCtx(context.Background(), instance.Lambda(7, 2), Options{}); err != nil {
		t.Fatal(err)
	}
	// Hash-class and non-default-option entries must not round-trip.
	if _, _, err := src.CoverCtx(context.Background(), instance.Hub(9, 0), Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := src.CoverAllToAllCtx(context.Background(), 9, Options{Strategy: "closed-form"}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if s := buf.String(); strings.Contains(s, "s=") || strings.Contains(s, "d=h") {
		t.Fatalf("snapshot leaked non-persistable entries: %s", s)
	}

	dst := New(32)
	loaded, skipped, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 4 || skipped != 0 {
		t.Fatalf("loaded %d skipped %d, want 4/0", loaded, skipped)
	}
	// Warm hits, identical results, no recomputation.
	for _, n := range []int{7, 8, 12} {
		res, hit, err := dst.CoverAllToAllCtx(context.Background(), n, Options{})
		if err != nil || !hit {
			t.Fatalf("n=%d after load: hit=%v err=%v", n, hit, err)
		}
		fresh, _, _ := src.CoverAllToAllCtx(context.Background(), n, Options{})
		if res.Covering.Size() != fresh.Covering.Size() || res.Optimal != fresh.Optimal {
			t.Fatalf("n=%d: snapshot entry drifted", n)
		}
		if err := cover.Verify(res.Covering, instance.AllToAll(n).Demand); err != nil {
			t.Fatal(err)
		}
	}
	if st := dst.Stats(); st.Coverings.Misses != 0 {
		t.Fatalf("warm start still computed: %+v", st)
	}
}

// TestSnapshotRejectsTamperedEntries proves a snapshot cannot inject bad
// results: broken coverings and false optimality claims are dropped.
func TestSnapshotRejectsTamperedEntries(t *testing.T) {
	src := New(8)
	if _, _, err := src.CoverAllToAllCtx(context.Background(), 9, Options{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		Version   int `json:"version"`
		Coverings []struct {
			N       int     `json:"n"`
			Lambda  int     `json:"lambda"`
			Method  string  `json:"method"`
			Optimal bool    `json:"optimal"`
			Cycles  [][]int `json:"cycles"`
		} `json:"coverings"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}

	mutate := func(f func()) (loaded, skipped int) {
		orig := file.Coverings[0].Cycles
		defer func() { file.Coverings[0].Cycles = orig; file.Coverings[0].Optimal = true }()
		f()
		raw, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		dst := New(8)
		loaded, skipped, err = dst.LoadSnapshot(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		return loaded, skipped
	}

	// Drop a cycle: the covering misses demand edges → rejected.
	if loaded, skipped := mutate(func() {
		file.Coverings[0].Cycles = file.Coverings[0].Cycles[1:]
	}); loaded != 0 || skipped != 1 {
		t.Fatalf("incomplete covering admitted: loaded=%d skipped=%d", loaded, skipped)
	}
	// Inflate the covering while claiming optimality → ρ check rejects.
	if loaded, skipped := mutate(func() {
		file.Coverings[0].Cycles = append(file.Coverings[0].Cycles, file.Coverings[0].Cycles[0])
	}); loaded != 0 || skipped != 1 {
		t.Fatalf("false optimality claim admitted: loaded=%d skipped=%d", loaded, skipped)
	}
	// Corrupt a cycle beyond reconstruction → rejected.
	if loaded, skipped := mutate(func() {
		file.Coverings[0].Cycles[0] = []int{0, 0}
	}); loaded != 0 || skipped != 1 {
		t.Fatalf("malformed cycle admitted: loaded=%d skipped=%d", loaded, skipped)
	}

	// Wrong version is a hard error.
	raw, _ := json.Marshal(map[string]any{"version": 99})
	if _, _, err := New(8).LoadSnapshot(bytes.NewReader(raw)); err == nil {
		t.Fatal("future snapshot version accepted")
	}
	// Garbage is a hard error.
	if _, _, err := New(8).LoadSnapshot(strings.NewReader("{")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

// hostileSnapshots are well-formed snapshots whose one entry claims a
// demand far larger than its cycles could cover: λ past int32 (building
// the demand panics), and K_20000 with no cycles (building the demand
// allocates ~1.5 GB).
var hostileSnapshots = []string{
	`{"version":1,"coverings":[{"n":3,"lambda":3000000000,"cycles":[[0,1,2]]}]}`,
	`{"version":1,"coverings":[{"n":20000,"lambda":1,"cycles":[]}]}`,
}

// TestSnapshotHostileEntryCostsNothing: an entry is skipped before its
// demand is built when its cycles hold fewer slots than λK_n has
// requests, so a hostile entry costs no more than its bytes.
func TestSnapshotHostileEntryCostsNothing(t *testing.T) {
	for _, snap := range hostileSnapshots {
		p := New(8)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		loaded, skipped, err := p.LoadSnapshot(strings.NewReader(snap))
		runtime.ReadMemStats(&after)
		if err != nil || loaded != 0 || skipped != 1 {
			t.Fatalf("%s: (loaded %d, skipped %d, err %v), want (0, 1, nil)", snap, loaded, skipped, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: allocated %d bytes before skipping, want < 1 MiB", snap, alloc)
		}
	}
}

// FuzzLoadSnapshot feeds arbitrary bytes to LoadSnapshot: it must never
// panic, every entry it admits must verify against λK_n, and an entry
// may claim optimality only for K_n at exactly ρ(n) cycles.
func FuzzLoadSnapshot(f *testing.F) {
	src := New(8)
	if _, _, err := src.CoverAllToAllCtx(context.Background(), 7, Options{}); err != nil {
		f.Fatal(err)
	}
	if _, _, err := src.CoverCtx(context.Background(), instance.Lambda(5, 2), Options{}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SaveSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	saved := buf.Bytes()
	f.Add(saved)
	f.Add(saved[:len(saved)/2])
	f.Add([]byte(`{"version":99,"coverings":[]}`))
	for _, snap := range hostileSnapshots {
		f.Add([]byte(snap))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := New(8)
		if _, _, err := p.LoadSnapshot(bytes.NewReader(data)); err != nil {
			return
		}
		p.coverings.Each(func(key string, val any) {
			var n, lam int
			if _, err := fmt.Sscanf(key, "n=%d;d=k%d", &n, &lam); err != nil {
				t.Fatalf("admitted entry under non-λ key %q", key)
			}
			res := val.(CoverResult)
			if err := cover.Verify(res.Covering, graph.LambdaComplete(n, lam)); err != nil {
				t.Fatalf("admitted entry %q does not cover λK_n: %v", key, err)
			}
			if res.Optimal && (lam != 1 || res.Covering.Size() != cover.Rho(n)) {
				t.Fatalf("admitted entry %q claims optimality at %d cycles", key, res.Covering.Size())
			}
		})
	})
}
