package markov_test

import (
	"testing"

	"hap/internal/core"
	"hap/internal/mmpp"
)

// BenchmarkStationaryP0 solves the stationary law of Solution 1's
// modulator at the paper's P0: the (x, y) chain at its default bounds,
// 25 users and 127 applications, 3,328 states. It reports states/s.
func BenchmarkStationaryP0(b *testing.B) {
	m := core.PaperParams(20)
	users, apps := mmpp.DefaultBounds(m, 8)
	if users != 25 || apps != 127 {
		b.Fatalf("P0 default bounds are (%d, %d), want (25, 127)", users, apps)
	}
	proc, _, err := mmpp.FromHAPSimplified(m, users, apps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := proc.Chain.Stationary(nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(proc.Chain.N())*float64(b.N)/b.Elapsed().Seconds(), "states/s")
}
