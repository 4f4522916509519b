package mmpp

import (
	"context"
	"math"
	"testing"

	"hap/internal/core"
	"hap/internal/markov"
)

func wantClose(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	ref := math.Max(1e-12, math.Abs(want))
	if math.Abs(got-want)/ref > relTol {
		t.Errorf("%s = %v, want %v (rel tol %v)", name, got, want, relTol)
	}
}

func TestMMPP2Stationary(t *testing.T) {
	m2 := MMPP2{R0: 1, R1: 10, Q01: 0.2, Q10: 0.8}
	if err := m2.Validate(); err != nil {
		t.Fatal(err)
	}
	wantClose(t, "p0", m2.StationaryP0(), 0.8, 1e-12)
	wantClose(t, "mean", m2.MeanRate(), 0.8*1+0.2*10, 1e-12)
	wantClose(t, "var", m2.RateVariance(), 0.8*0.2*81, 1e-12)
	wantClose(t, "tau", m2.CorrelationTime(), 1.0, 1e-12)
	if m2.AsymptoticIDC() <= 1 {
		t.Error("modulated process must have IDC > 1")
	}
}

func TestMMPP2GeneralAgrees(t *testing.T) {
	m2 := MMPP2{R0: 2, R1: 7, Q01: 0.3, Q10: 0.5}
	g := m2.General()
	rate, err := g.MeanRate()
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "mean", rate, m2.MeanRate(), 1e-8)
	v, err := g.RateVariance()
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "var", v, m2.RateVariance(), 1e-7)
	idc, err := g.AsymptoticIDC(m2.CorrelationTime())
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "idc", idc, m2.AsymptoticIDC(), 1e-7)
}

func TestFromHAPSimplifiedMeanRate(t *testing.T) {
	// The truncated simplified chain's stationary mean rate must recover
	// Equation 4's λ̄ = 8.25 once the bounds are wide enough.
	m := core.PaperParams(20)
	maxU, maxA := DefaultBounds(m, 8)
	proc, lat, err := FromHAPSimplified(m, maxU, maxA)
	if err != nil {
		t.Fatal(err)
	}
	if lat.N() != (maxU+1)*(maxA+1) {
		t.Fatalf("lattice size %d", lat.N())
	}
	rate, err := proc.MeanRate()
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "mean rate", rate, 8.25, 2e-3)
}

func TestFromHAPSimplifiedMarginals(t *testing.T) {
	// Users must be Poisson(ν) and total applications Poisson(ν·l·a')
	// marginally.
	m := core.PaperParams(20)
	proc, lat, err := FromHAPSimplified(m, 40, 120)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := proc.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	meanX := markov.ExpectedValue(pi, func(s int) float64 { return float64(lat.At(s, 0)) })
	meanY := markov.ExpectedValue(pi, func(s int) float64 { return float64(lat.At(s, 1)) })
	wantClose(t, "mean users", meanX, 5.5, 5e-3)
	wantClose(t, "mean apps", meanY, 27.5, 5e-3)
	// Variance of y: the exact cascade formula
	// ν·l·a' + (l·a')²·ν·μ'/(μ+μ') = 27.5 + 137.5·(0.01/0.011) = 152.5,
	// below the conditional-equilibrium 165 because the application
	// population low-pass filters the user fluctuations.
	varY := markov.ExpectedValue(pi, func(s int) float64 {
		d := float64(lat.At(s, 1)) - meanY
		return d * d
	})
	wantClose(t, "var apps", varY, StationaryAppVariance(m), 0.01)
	wantClose(t, "var apps closed form", StationaryAppVariance(m), 152.5, 1e-9)
	if varY <= 27.5 || varY >= 165 {
		t.Errorf("var(y) = %v must lie between the Poisson floor and the equilibrium ceiling", varY)
	}
}

func TestFromHAPFullMatchesSimplifiedOnSymmetric(t *testing.T) {
	// Small symmetric model: the full per-type chain and the aggregated
	// (x, y) chain must give identical mean rates and rate variances.
	m := core.NewSymmetric(0.5, 0.25, 0.4, 0.5, 2, 50, 2, 2)
	full, _, err := FromHAP(m, 10, []int{12, 12})
	if err != nil {
		t.Fatal(err)
	}
	simp, _, err := FromHAPSimplified(m, 10, 24)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := full.MeanRate()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := simp.MeanRate()
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "rates agree", rf, rs, 1e-3)
	wantClose(t, "analytic", rf, m.MeanRate(), 5e-3)
	vf, _ := full.RateVariance()
	vs, _ := simp.RateVariance()
	wantClose(t, "variances agree", vf, vs, 5e-3)
}

func TestFromHAPGeneralAsymmetric(t *testing.T) {
	// A small asymmetric model exercises the general constructor; its mean
	// rate must match Equation 4.
	m := &core.Model{
		Name: "tiny", Lambda: 0.6, Mu: 0.3,
		Apps: []core.AppType{
			{Name: "a", Lambda: 0.5, Mu: 1, Messages: []core.MessageType{{Name: "m1", Lambda: 3, Mu: 100}}},
			{Name: "b", Lambda: 0.2, Mu: 0.5, Messages: []core.MessageType{
				{Name: "m2", Lambda: 1, Mu: 100}, {Name: "m3", Lambda: 2, Mu: 100},
			}},
		},
	}
	proc, _, err := FromHAP(m, 14, []int{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	rate, err := proc.MeanRate()
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "eq4", rate, m.MeanRate(), 0.01)
}

func TestInterarrivalMixture(t *testing.T) {
	m := core.PaperParams(20)
	proc, _, err := FromHAPSimplified(m, 40, 120)
	if err != nil {
		t.Fatal(err)
	}
	mx, err := proc.InterarrivalMixture(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	w, r, rate := mx.Weights, mx.Rates, mx.MeanRate
	if len(w) != len(r) || len(w) == 0 {
		t.Fatal("empty mixture")
	}
	var sum float64
	for _, x := range w {
		sum += x
	}
	wantClose(t, "weights sum", sum, 1, 1e-9)
	wantClose(t, "rate", rate, 8.25, 5e-3)
	for _, rr := range r {
		if rr <= 0 {
			t.Fatal("zero-rate branch leaked into mixture")
		}
	}
}

func TestFitFromHAP(t *testing.T) {
	m := core.PaperParams(20)
	fit, err := FitFromHAP(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := fit.Validate(); err != nil {
		t.Fatal(err)
	}
	wantClose(t, "fit mean", fit.MeanRate(), 8.25, 1e-9)
	// Var(R) = (0.3)²·152.5 = 13.725.
	wantClose(t, "fit var", fit.RateVariance(), 13.725, 1e-9)
	wantClose(t, "fit tau", fit.CorrelationTime(), 100, 1e-9) // 1/μ'
	if _, err := FitFromHAP(core.Figure5Example()); err == nil {
		t.Error("asymmetric fit must be rejected")
	}
}

func TestFitMMPP2Clamps(t *testing.T) {
	// Huge variance forces R0 to clamp at 0 (an IPP).
	f, err := FitMMPP2(1, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.R0 != 0 {
		t.Errorf("R0 = %v, want clamp to 0", f.R0)
	}
	if _, err := FitMMPP2(0, 1, 1); err == nil {
		t.Error("zero mean must be rejected")
	}
}

func TestConstructorValidation(t *testing.T) {
	m := core.PaperParams(20)
	if _, _, err := FromHAPSimplified(core.Figure5Example(), 10, 10); err == nil {
		t.Error("asymmetric simplified must fail")
	}
	if _, _, err := FromHAPSimplified(m, 0, 10); err == nil {
		t.Error("zero bound must fail")
	}
	if _, _, err := FromHAP(m, 10, []int{1, 2}); err == nil {
		t.Error("wrong bound arity must fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched rates must panic")
		}
	}()
	New(markov.NewChain(3), []float64{1, 2})
}

func TestInterarrivalLaplace(t *testing.T) {
	// Poisson degeneracy: R0 = R1 = λ must give exactly λ/(λ+s).
	const lam = 7.0
	pois := MMPP2{R0: lam, R1: lam, Q01: 3, Q10: 5}
	A, err := pois.InterarrivalLaplace()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{0, 0.1, 1, 10, 100} {
		want := lam / (lam + s)
		if got := A(s); math.Abs(got-want) > 1e-12 {
			t.Errorf("Poisson degeneracy: A*(%g) = %v, want %v", s, got, want)
		}
	}

	// A genuinely bursty process: A*(0) = 1, transform decreasing in s,
	// and the numerical mean −A*'(0) must equal 1/λ̄ (arrival-stationary
	// interarrival mean).
	m := MMPP2{R0: 2, R1: 40, Q01: 0.5, Q10: 1.5}
	A, err = m.InterarrivalLaplace()
	if err != nil {
		t.Fatal(err)
	}
	if got := A(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("A*(0) = %v, want 1", got)
	}
	if !(A(1) > A(2) && A(2) > A(10)) {
		t.Error("A* is not decreasing in s")
	}
	const h = 1e-6
	mean := -(A(h) - A(-h)) / (2 * h)
	want := 1 / m.MeanRate()
	if math.Abs(mean-want) > 1e-6*want {
		t.Errorf("numerical mean −A*'(0) = %v, want 1/λ̄ = %v", mean, want)
	}

	// The transform feeds gm1 directly: a fitted-MMPP2 delay must exceed
	// the Poisson (M/M/1) delay at equal load, since c² > 1.
	if idc := m.AsymptoticIDC(); !(idc > 1) {
		t.Fatalf("test process not bursty (IDC %v)", idc)
	}

	// Invalid parameters are rejected.
	if _, err := (MMPP2{R0: -1, R1: 1, Q01: 1, Q10: 1}).InterarrivalLaplace(); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := (MMPP2{R0: 0, R1: 0, Q01: 1, Q10: 1}).InterarrivalLaplace(); err == nil {
		t.Error("zero-rate process accepted")
	}
}
