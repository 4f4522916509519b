package core

import (
	"math"
	"testing"

	"hap/internal/dist"
	"hap/internal/quad"
)

func TestInterarrivalPaperFigure9Values(t *testing.T) {
	// Figure 9 parameters: λ = 0.005 so ν = 5, λ̄ = 7.5, a(0) = 9.3
	// (the paper prints 9.28 from its plot).
	ia := Figure9Params(20).Interarrival()
	wantClose(t, "mean rate", ia.MeanRate(), 7.5, 1e-12)
	wantClose(t, "a(0)", ia.PDFAtZero(), 9.3, 1e-9)
	if ia.PDFAtZero() <= 7.5 {
		t.Error("HAP density at 0 must exceed the Poisson rate")
	}
}

func TestInterarrivalCrossingsMatchFigure9(t *testing.T) {
	// The paper reports intersections with the equal-load Poisson density
	// at t ≈ 0.077 and t ≈ 0.53.
	ia := Figure9Params(20).Interarrival()
	crossings := ia.CrossingsWithPoisson(1.0, 400)
	if len(crossings) < 2 {
		t.Fatalf("found %d crossings, want >= 2 (%v)", len(crossings), crossings)
	}
	wantClose(t, "first crossing", crossings[0], 0.077, 0.10)
	wantClose(t, "second crossing", crossings[len(crossings)-1], 0.53, 0.10)
}

func TestInterarrivalDensityIntegratesToOne(t *testing.T) {
	ia := PaperParams(20).Interarrival()
	integral := quad.ToInf(ia.PDF, 0, 0.1, 1e-11)
	wantClose(t, "∫a(t)", integral, 1, 1e-6)
}

func TestInterarrivalPDFIsMinusCCDFDerivative(t *testing.T) {
	ia := PaperParams(20).Interarrival()
	for _, x := range []float64{0.01, 0.05, 0.13, 0.5, 2} {
		h := 1e-6
		d := -(ia.CCDF(x+h) - ia.CCDF(x-h)) / (2 * h)
		wantClose(t, "a(t) vs -Ā'", d, ia.PDF(x), 1e-4)
	}
}

func TestInterarrivalCDFLimits(t *testing.T) {
	// The paper's sanity check: A(t) → 1 as t → ∞ and A(0) = 0, that is
	// Ā(0) = 1 and Ā(∞) = 0.
	ia := PaperParams(20).Interarrival()
	wantClose(t, "Ā(0)", ia.CCDF(0), 1, 1e-12)
	wantClose(t, "Ā(inf)", ia.CCDF(1e6), 0, 1e-9)
	if ia.CCDF(-1) != 1 || ia.PDF(-1) != 0 {
		t.Error("negative t handling wrong")
	}
}

func TestInterarrivalMeanIdentity(t *testing.T) {
	// E[T] = (1 - zero-rate mass)/λ̄, and the quadrature of the CCDF must
	// agree with the closed form.
	ia := PaperParams(20).Interarrival()
	numeric := quad.ToInf(ia.CCDF, 0, 0.1, 1e-12)
	wantClose(t, "mean closed vs numeric", ia.Mean(), numeric, 1e-7)
	// For the paper parameters the zero-rate mass is tiny, so the mean is
	// within a percent of 1/λ̄ = 0.1212.
	wantClose(t, "mean ≈ 1/λ̄", ia.Mean(), 1/8.25, 0.01)
}

func TestInterarrivalSCVExceedsPoisson(t *testing.T) {
	ia := PaperParams(20).Interarrival()
	if scv := ia.SCV(); scv <= 1 {
		t.Errorf("HAP SCV = %v, want > 1", scv)
	}
}

func TestInterarrivalLMNRelations(t *testing.T) {
	// L' = -L·M and M' = -N (the paper states L'(t) = -L(t)M(t)).
	ia := PaperParams(20).Interarrival()
	h := 1e-6
	for _, x := range []float64{0.02, 0.1, 0.7, 3} {
		dL := (ia.L(x+h) - ia.L(x-h)) / (2 * h)
		wantClose(t, "L'", dL, -ia.L(x)*ia.M(x), 1e-4)
		dM := (ia.M(x+h) - ia.M(x-h)) / (2 * h)
		wantClose(t, "M'", dM, -ia.N(x), 1e-4)
	}
	wantClose(t, "L(0)", ia.L(0), 1, 1e-12)
	wantClose(t, "M(0)", ia.M(0), 1.5, 1e-12) // Σ aᵢΛᵢ = 5·1·0.3
	wantClose(t, "N(0)", ia.N(0), 0.45, 1e-12)
}

func TestInterarrivalLaplaceProperties(t *testing.T) {
	ia := PaperParams(20).Interarrival()
	wantClose(t, "A*(0)", ia.Laplace(0), 1, 1e-12)
	prev := 1.0
	for _, s := range []float64{0.5, 2, 10, 50} {
		v := ia.Laplace(s)
		if v <= 0 || v >= prev {
			t.Errorf("A*(%v) = %v not strictly decreasing in (0,1)", s, v)
		}
		prev = v
	}
	// Laplace at s of a distribution with density a(t): cross-check by
	// direct quadrature of the density.
	s := 10.0
	direct := quad.ToInf(func(t float64) float64 { return ia.PDF(t) * math.Exp(-s*t) }, 0, 0.05, 1e-12)
	wantClose(t, "A*(10) vs density integral", ia.Laplace(s), direct, 1e-5)
}

func TestInterarrivalTailLongerThanPoisson(t *testing.T) {
	// Section 4.2: past the second crossing HAP has more tail mass.
	ia := Figure9Params(20).Interarrival()
	rate := ia.MeanRate()
	for _, x := range []float64{0.6, 0.7, 1.0} {
		poisson := math.Exp(-rate * x)
		if ia.CCDF(x) <= poisson {
			t.Errorf("HAP CCDF(%v) = %v <= Poisson %v", x, ia.CCDF(x), poisson)
		}
	}
}

func TestUnboundedMixtureMatchesClosedForm(t *testing.T) {
	// The discrete state mixture with caps twelve standard deviations
	// into the tails (43 users against a mean of 5.5, 400 applications
	// against the 215 that 43 users hold on average) is an independent
	// derivation of the same law; the two must agree.
	m := PaperParams(20)
	ia := m.Interarrival()
	mix, err := m.BoundedMixture(43, 400)
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "mean rate", mix.MeanRate, ia.MeanRate(), 1e-6)
	wantClose(t, "zero mass", mix.ZeroMass, ia.ZeroRateMass(), 1e-6)
	h := hyper(mix)
	for _, x := range []float64{0.01, 0.1, 0.3, 1} {
		wantClose(t, "ccdf", 1-h.CDF(x), ia.CCDF(x), 1e-4)
	}
	for _, s := range []float64{0.5, 5, 20} {
		wantClose(t, "laplace", mix.Laplace(s), ia.Laplace(s), 1e-4)
	}
}

func TestBoundedMixtureReducesBurstiness(t *testing.T) {
	// Figure 20: bounding users at 12 and applications at 60 must reduce
	// both the mean rate (slightly) and the interarrival SCV.
	m := PaperParams(20)
	free, err := m.BoundedMixture(60, 300)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := m.BoundedMixture(12, 60)
	if err != nil {
		t.Fatal(err)
	}
	if bound.MeanRate >= free.MeanRate {
		t.Errorf("bounding should trim the rate: %v vs %v", bound.MeanRate, free.MeanRate)
	}
	freeSCV := scvOf(free)
	boundSCV := scvOf(bound)
	if boundSCV >= freeSCV {
		t.Errorf("bounding should reduce SCV: bounded %v vs free %v", boundSCV, freeSCV)
	}
}

// hyper is the mixture as a distribution with moments and a CDF.
func hyper(mx *Mixture) *dist.HyperExponential {
	return dist.NewHyperExponential(mx.Weights, mx.Rates)
}

func scvOf(mx *Mixture) float64 {
	h := hyper(mx)
	m := h.Mean()
	return h.SecondMoment()/(m*m) - 1
}

func TestBoundedMixtureErrors(t *testing.T) {
	if _, err := Figure5Example().BoundedMixture(10, 10); err == nil {
		t.Error("asymmetric model must be rejected")
	}
	if _, err := PaperParams(20).BoundedMixture(0, 10); err == nil {
		t.Error("zero bound must be rejected")
	}
}
