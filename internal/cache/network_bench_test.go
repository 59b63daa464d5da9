package cache

import (
	"context"
	"fmt"
	"testing"

	"github.com/cyclecover/cyclecover/internal/instance"
	"github.com/cyclecover/cyclecover/internal/wdm"
)

// BenchmarkNetworkStoreHit weighs the network store against planning
// afresh from the covering store: "store-hit" is what a warm ring
// request pays for its network, "cover-hit+plan" is what it would pay
// without the store — a covering hit with its clone, then wdm.Plan.
func BenchmarkNetworkStoreHit(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{21, 51, 101} {
		p := New(8)
		in := instance.AllToAll(n)
		if _, _, err := p.NetworkCtx(ctx, in, Options{}); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("store-hit/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, hit, err := p.NetworkCtx(ctx, in, Options{}); err != nil || !hit {
					b.Fatalf("hit=%v err=%v", hit, err)
				}
			}
		})
		b.Run(fmt.Sprintf("cover-hit+plan/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, hit, err := p.CoverCtx(ctx, in, Options{})
				if err != nil || !hit {
					b.Fatalf("hit=%v err=%v", hit, err)
				}
				if _, err := wdm.Plan(res.Covering, in.Demand); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
