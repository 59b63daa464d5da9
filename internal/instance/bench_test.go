package instance

import (
	"fmt"
	"testing"
)

// BenchmarkParseGeneral is the admission of a random cubic host, the
// bulk of general traffic: the configuration-model sampler, the host
// index, and the connectivity and bridge checks. Seeds are fixed, so the
// sampler's rejections, and with them the bytes allocated, are the same
// on every run. cmd/benchgate pins its B/op: at n = 1024 a Θ(n²)
// structure on the general parse path would cost megabytes.
func BenchmarkParseGeneral(b *testing.B) {
	for _, n := range []int{80, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(n, "cubic:7919"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
