package solver

import (
	"context"
	"testing"

	"hap/internal/core"
	"hap/internal/mmpp"
)

// benchQBD keeps the measured solve alive.
var benchQBD *QBD

// BenchmarkSolveQBDP0 times the exact P0 solve behind Solution0MG and E1:
// log reduction on the (x, y) modulator at 8 users and 48 applications,
// 441 phases. Nearly all of it is the 441×441 Mul, Factor and Solve that
// linalg's Mul441/Factor441/Solve441 benches time one call at a time. It
// reports seconds per solve and the log-reduction iterations.
func BenchmarkSolveQBDP0(b *testing.B) {
	m := core.PaperParams(20)
	proc, _, err := mmpp.FromHAPSimplified(m, 8, 48)
	if err != nil {
		b.Fatal(err)
	}
	mu, _ := m.UniformServiceRate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchQBD, err = SolveQBD(context.Background(), proc, mu, RMethodLogReduction, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "s/op")
	b.ReportMetric(float64(benchQBD.LRIter), "lr_iters")
}
