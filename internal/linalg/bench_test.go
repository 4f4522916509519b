package linalg

import (
	"math/rand"
	"testing"
)

// The 441×441 benches size the kernels at the matrix-geometric solve of
// E1's exact delay (the (x, y) modulator at 8 users and 48 applications
// has 9·49 = 441 phases). Each reports GFLOP/s counting a multiply and an
// add as two flops.

const benchN = 441

// benchSink keeps the measured results alive.
var benchSink *Dense

func gflops(b *testing.B, flopsPerOp float64) {
	b.ReportMetric(flopsPerOp*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// wellConditioned returns a random matrix with a dominant diagonal, so
// factoring it exercises the kernels rather than the pivot search.
func wellConditioned(n int) *Dense {
	a := randMat(rand.New(rand.NewSource(1)), n, n)
	a.AddToDiag(float64(n))
	return a
}

func BenchmarkMul441(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randMat(r, benchN, benchN), randMat(r, benchN, benchN)
	dst := NewDense(benchN, benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(dst, x, y)
	}
	benchSink = dst
	gflops(b, 2*benchN*benchN*benchN)
}

func BenchmarkFactor441(b *testing.B) {
	a := wellConditioned(benchN)
	b.ReportAllocs()
	b.ResetTimer()
	var f *LU
	for i := 0; i < b.N; i++ {
		var err error
		if f, err = Factor(a); err != nil {
			b.Fatal(err)
		}
	}
	benchSink = f.lu
	gflops(b, 2.0/3*benchN*benchN*benchN)
}

// BenchmarkSolve441 solves for a full 441-column right-hand side, the
// shape of the solver's (I−D)⁻¹·U² steps.
func BenchmarkSolve441(b *testing.B) {
	f, err := Factor(wellConditioned(benchN))
	if err != nil {
		b.Fatal(err)
	}
	rhs := randMat(rand.New(rand.NewSource(2)), benchN, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = f.Solve(rhs)
	}
	gflops(b, 2*benchN*benchN*benchN)
}
