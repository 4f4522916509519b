package dist

import (
	"math"
	"math/rand"
	"testing"
)

// sampleMoments draws n variates and returns the sample mean and variance.
func sampleMoments(t *testing.T, sample func(*rand.Rand) float64, n int) (mean, variance float64) {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := sample(r)
		if v < 0 {
			t.Fatalf("negative sample %v", v)
		}
		sum += v
		sumsq += v * v
	}
	mean = sum / float64(n)
	variance = sumsq/float64(n) - mean*mean
	return mean, variance
}

func wantClose(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if want == 0 {
		if math.Abs(got) > relTol {
			t.Errorf("%s = %v, want ~0", name, got)
		}
		return
	}
	if math.Abs(got-want)/math.Abs(want) > relTol {
		t.Errorf("%s = %v, want %v (rel tol %v)", name, got, want, relTol)
	}
}

func TestExponentialMoments(t *testing.T) {
	e := NewExponential(4)
	wantClose(t, "mean", e.Mean(), 0.25, 1e-12)
	wantClose(t, "var", e.Var(), 0.0625, 1e-12)
	m, v := sampleMoments(t, e.Sample, 200000)
	wantClose(t, "sample mean", m, 0.25, 0.02)
	wantClose(t, "sample var", v, 0.0625, 0.05)
}

func TestExponentialPDFCDFConsistency(t *testing.T) {
	e := NewExponential(2.5)
	// Numeric derivative of the CDF should match the PDF.
	for _, x := range []float64{0.01, 0.3, 1, 2.7} {
		h := 1e-6
		d := (e.CDF(x+h) - e.CDF(x-h)) / (2 * h)
		wantClose(t, "dCDF/dt", d, e.PDF(x), 1e-4)
	}
	if e.CDF(-1) != 0 || e.PDF(-1) != 0 {
		t.Error("negative support should have zero mass")
	}
}

func TestExponentialQuantileInvertsCDF(t *testing.T) {
	e := NewExponential(0.7)
	for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.999} {
		wantClose(t, "CDF(Quantile(p))", e.CDF(e.Quantile(p)), p, 1e-10)
	}
}

func TestErlangMoments(t *testing.T) {
	e := NewErlang(4, 8) // mean 0.5, var 4/64
	wantClose(t, "mean", e.Mean(), 0.5, 1e-12)
	wantClose(t, "var", e.Var(), 4.0/64, 1e-12)
	m, v := sampleMoments(t, e.Sample, 100000)
	wantClose(t, "sample mean", m, 0.5, 0.01)
	wantClose(t, "sample var", v, 0.0625, 0.05)
	wantClose(t, "SCV", e.Var()/(e.Mean()*e.Mean()), 0.25, 1e-12)
}

func TestErlangK1MatchesExponential(t *testing.T) {
	e1 := NewErlang(1, 3)
	ex := NewExponential(3)
	for _, x := range []float64{0.1, 0.5, 1, 2} {
		wantClose(t, "pdf", e1.PDF(x), ex.PDF(x), 1e-10)
		wantClose(t, "cdf", e1.CDF(x), ex.CDF(x), 1e-10)
		wantClose(t, "laplace", e1.Laplace(x), ex.Laplace(x), 1e-12)
	}
}

func TestErlangCDFMatchesPDFIntegral(t *testing.T) {
	e := NewErlang(3, 2)
	// A trapezoid-rule integral of the PDF up to x should match the CDF.
	const n = 20000
	x := 2.0
	h := x / n
	var integral float64
	for i := 0; i <= n; i++ {
		w := 1.0
		if i == 0 || i == n {
			w = 0.5
		}
		integral += w * e.PDF(float64(i)*h)
	}
	integral *= h
	wantClose(t, "∫pdf", integral, e.CDF(x), 1e-5)
}

func TestHyperExponential(t *testing.T) {
	h := NewHyperExponential([]float64{0.3, 0.7}, []float64{1, 10})
	wantMean := 0.3/1 + 0.7/10
	wantClose(t, "mean", h.Mean(), wantMean, 1e-12)
	m, v := sampleMoments(t, h.Sample, 300000)
	wantClose(t, "sample mean", m, wantMean, 0.02)
	wantClose(t, "sample var", v, h.Var(), 0.05)
	if scv := h.Var() / (h.Mean() * h.Mean()); scv <= 1 {
		t.Errorf("hyperexponential SCV = %v, want > 1", scv)
	}
}

func TestHyperExponentialNormalises(t *testing.T) {
	h := NewHyperExponential([]float64{3, 7}, []float64{1, 10})
	wantClose(t, "p0", h.P[0], 0.3, 1e-12)
	wantClose(t, "p1", h.P[1], 0.7, 1e-12)
	wantClose(t, "laplace(0)", h.Laplace(0), 1, 1e-12)
}

func TestHyperExponentialManyBranches(t *testing.T) {
	// Binary-search sampling path with a larger mixture.
	n := 100
	p := make([]float64, n)
	rates := make([]float64, n)
	for i := range p {
		p[i] = float64(i + 1)
		rates[i] = float64(i+1) * 0.5
	}
	h := NewHyperExponential(p, rates)
	m, _ := sampleMoments(t, h.Sample, 200000)
	wantClose(t, "sample mean", m, h.Mean(), 0.03)
}

func TestInvalidParamsPanic(t *testing.T) {
	cases := []func(){
		func() { NewExponential(0) },
		func() { NewExponential(-1) },
		func() { NewErlang(0, 1) },
		func() { NewHyperExponential([]float64{1}, []float64{1, 2}) },
		func() { NewHyperExponential([]float64{0, 0}, []float64{1, 2}) },
		func() { NewHyperExponential([]float64{-1, 2}, []float64{1, 2}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
