//go:build faultinject

package cache

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/cyclecover/cyclecover/internal/faultinject"
	"github.com/cyclecover/cyclecover/internal/instance"
)

// TestChaosSnapshotSaveFailureKeepsPrevious: an injected error on the
// snapshot write path surfaces to the caller and leaves the previous
// snapshot byte-identical — the atomic-write contract holds even when
// the failure fires before the temp file exists.
func TestChaosSnapshotSaveFailureKeepsPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.snap")
	p := New(8)
	if _, _, err := p.CoverCtx(context.Background(), instance.AllToAll(9), Options{}); err != nil {
		t.Fatal(err)
	}
	if err := p.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := faultinject.Configure("cache.snapshot.save=err(disk full)", 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Reset)
	if err := p.SaveSnapshotFile(path); err == nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected save error = %v, want wrapped ErrInjected", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("failed save mutated the previous snapshot")
	}

	// Disarmed, the same path works again and the file still loads.
	faultinject.Reset()
	if err := p.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	fresh := New(8)
	if loaded, _, err := fresh.LoadSnapshotFile(path); err != nil || loaded == 0 {
		t.Fatalf("reload after recovery = (%d, %v), want entries and no error", loaded, err)
	}
}

// TestChaosSnapshotLoadFailureStartsCold: an injected error on the
// snapshot read path is reported (so the daemon can log-and-skip) and
// the cache simply starts cold — nothing is half-loaded.
func TestChaosSnapshotLoadFailureStartsCold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plans.snap")
	p := New(8)
	if _, _, err := p.CoverCtx(context.Background(), instance.AllToAll(9), Options{}); err != nil {
		t.Fatal(err)
	}
	if err := p.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}

	if err := faultinject.Configure("cache.snapshot.load=err(io timeout)", 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Reset)
	cold := New(8)
	loaded, skipped, err := cold.LoadSnapshotFile(path)
	if err == nil || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected load error = %v, want wrapped ErrInjected", err)
	}
	if loaded != 0 || skipped != 0 {
		t.Fatalf("failed load reported (%d, %d) entries, want (0, 0)", loaded, skipped)
	}
	if n := cold.Stats().Coverings.Entries; n != 0 {
		t.Fatalf("failed load left %d entries resident", n)
	}

	// The daemon's log-and-skip policy then serves from a cold cache.
	faultinject.Reset()
	if _, hit, err := cold.CoverCtx(context.Background(), instance.AllToAll(9), Options{}); err != nil || hit {
		t.Fatalf("cold serve after failed load = (hit=%v, %v)", hit, err)
	}
}
