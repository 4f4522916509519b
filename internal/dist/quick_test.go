package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// clampRate maps an arbitrary float to a sane positive rate.
func clampRate(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	r := math.Abs(x)
	if r < 1e-3 {
		r += 1e-3
	}
	if r > 1e3 {
		r = math.Mod(r, 1e3) + 1e-3
	}
	return r
}

func clampProb(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	p := math.Abs(math.Mod(x, 1))
	if p == 0 {
		p = 0.5
	}
	return p
}

// Property: Laplace transforms are completely monotone on s >= 0 —
// in particular bounded in (0,1], equal to 1 at s=0 and non-increasing.
func TestQuickLaplaceProperties(t *testing.T) {
	f := func(rate, s1, s2 float64) bool {
		lam := clampRate(rate)
		a, b := math.Abs(clampRate(s1)), math.Abs(clampRate(s2))
		if a > b {
			a, b = b, a
		}
		for _, laplace := range []func(float64) float64{
			NewExponential(lam).Laplace,
			NewErlang(3, lam).Laplace,
			NewHyperExponential([]float64{0.4, 0.6}, []float64{lam, 2 * lam}).Laplace,
		} {
			l0, la, lb := laplace(0), laplace(a), laplace(b)
			if math.Abs(l0-1) > 1e-9 {
				return false
			}
			if la < lb-1e-12 || la > 1+1e-12 || lb < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: CDFs are monotone non-decreasing and within [0,1], and the
// exponential quantile function is a right inverse.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(rate, x1, x2, p float64) bool {
		lam := clampRate(rate)
		a, b := math.Abs(clampRate(x1)), math.Abs(clampRate(x2))
		if a > b {
			a, b = b, a
		}
		for _, cdf := range []func(float64) float64{
			NewExponential(lam).CDF,
			NewErlang(2, lam).CDF,
			NewHyperExponential([]float64{0.5, 0.5}, []float64{lam, 3 * lam}).CDF,
		} {
			ca, cb := cdf(a), cdf(b)
			if ca < 0 || cb > 1+1e-12 || ca > cb+1e-12 {
				return false
			}
		}
		e, pp := NewExponential(lam), clampProb(p)
		return math.Abs(e.CDF(e.Quantile(pp))-pp) <= 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: samples are non-negative and finite for every law.
func TestQuickSamplesNonNegative(t *testing.T) {
	f := func(rate float64, seed int64) bool {
		lam := clampRate(rate)
		r := rand.New(rand.NewSource(seed))
		for _, sample := range []func(*rand.Rand) float64{
			NewExponential(lam).Sample,
			NewErlang(2, lam).Sample,
			NewHyperExponential([]float64{0.2, 0.8}, []float64{lam, 5 * lam}).Sample,
		} {
			for i := 0; i < 20; i++ {
				v := sample(r)
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: hyperexponential mean/second moment match the mixture formulas
// regardless of how the weights are scaled.
func TestQuickHyperExpScaleInvariance(t *testing.T) {
	f := func(w1, w2, w3, scale float64) bool {
		ws := []float64{clampRate(w1), clampRate(w2), clampRate(w3)}
		rates := []float64{0.5, 2, 7}
		k := clampRate(scale)
		h1 := NewHyperExponential(ws, rates)
		scaled := []float64{ws[0] * k, ws[1] * k, ws[2] * k}
		h2 := NewHyperExponential(scaled, rates)
		return math.Abs(h1.Mean()-h2.Mean()) < 1e-12 &&
			math.Abs(h1.SecondMoment()-h2.SecondMoment()) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStreamsIndependentAndReproducible(t *testing.T) {
	s1 := NewStreams(7)
	s2 := NewStreams(7)
	a, b := s1.Next(), s1.Next()
	c := s2.Next()
	va, vb, vc := a.Float64(), b.Float64(), c.Float64()
	if va == vb {
		t.Error("distinct streams produced identical first values")
	}
	if va != vc {
		t.Error("same-seed streams are not reproducible")
	}
}
