package construct

import (
	"context"
	"testing"
)

// BenchmarkDeltaRepairWarm is the delta scenario BENCH_6.json reports,
// at K_12: an optimal parent covering missing one cycle, patched through
// a reused DeltaScratch — the cycled service's steady state for
// /plan/delta. The CI gate pins its allocs/op and B/op at the measured
// maximum + 10 %: the tally is reused, so what remains is the returned
// covering and the cycles greedy adds.
func BenchmarkDeltaRepairWarm(b *testing.B) {
	r, parent, demand, opts := deltaFixture(b, 12)
	ctx := context.Background()
	if _, ok := DeltaRepair(ctx, r, parent, demand, opts); !ok {
		b.Fatal("warm-up patch failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := DeltaRepair(ctx, r, parent, demand, opts); !ok {
			b.Fatal("patch stopped answering")
		}
	}
}
