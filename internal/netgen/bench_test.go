package netgen

import (
	"testing"

	"hap/internal/core"
)

// BenchmarkGenerateHAP times one P0 schedule over 2·10⁵ model seconds
// (about 1.75M arrivals at seed 1), the whole set-up of hapbench's
// p0-offline workload. It reports generated arrivals per wall second.
func BenchmarkGenerateHAP(b *testing.B) {
	m := core.PaperParams(20)
	b.ReportAllocs()
	var arrivals int
	for i := 0; i < b.N; i++ {
		s, err := GenerateHAP(m, 2e5, 1)
		if err != nil {
			b.Fatal(err)
		}
		arrivals += len(s.Arrivals)
	}
	b.ReportMetric(float64(arrivals)/b.Elapsed().Seconds(), "arrivals/s")
}
