package wdm

import (
	"context"
	"fmt"
	"testing"

	"github.com/cyclecover/cyclecover/internal/construct"
	"github.com/cyclecover/cyclecover/internal/graph"
)

// benchSizes are the all-to-all rings the WDM benchmarks plan: the
// middle and top of the λK_n sizes the serving benchmark asks for.
var benchSizes = []int{21, 51, 101}

// BenchmarkWDMPlan measures one network-store miss: Plan over the
// paper's ρ(n) covering of K_n, verification included.
func BenchmarkWDMPlan(b *testing.B) {
	for _, n := range benchSizes {
		res, err := construct.AllToAllCtx(context.Background(), n)
		if err != nil {
			b.Fatal(err)
		}
		demand := graph.Complete(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Plan(res.Covering, demand); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var factsSink float64

// BenchmarkNetworkFacts measures the optical facts a /plan answer
// reports — wavelengths, ADMs, max transit and default-model cost — read
// from an already planned network, as every cache hit does.
func BenchmarkNetworkFacts(b *testing.B) {
	for _, n := range benchSizes {
		res, err := construct.AllToAllCtx(context.Background(), n)
		if err != nil {
			b.Fatal(err)
		}
		nw, err := Plan(res.Covering, graph.Complete(n))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				factsSink += float64(nw.Wavelengths()+nw.ADMCount()+nw.MaxTransit()) +
					DefaultCostModel.Cost(nw)
			}
		})
	}
}
