package core

import (
	"fmt"
	"math"
)

// This file derives the index of dispersion for counts (IDC) of a
// symmetric HAP in closed form — the burstiness fingerprint later traffic
// work (and the Fowler–Leland study the paper builds on) reports. For a
// doubly stochastic Poisson process with rate R(t),
//
//	IDC(t) = Var N(t) / E N(t) = 1 + (2/λ̄t)·∫₀ᵗ (t−u)·Cov_R(u) du.
//
// The symmetric HAP's rate is R = mλ”·y with the application count y
// driven by the user count x through a linear birth–death cascade, so the
// rate autocovariance is a two-exponential mixture:
//
//	Cov_y(u) = (Var(y) − D)·e^{−μ'u} + D·e^{−μu},
//	D        = l·λ'·σ_xy/(μ' − μ),   σ_xy = l·λ'·ν/(μ + μ'),
//
// with Var(y) = ν·l·a' + (l·a')²·ν·μ'/(μ+μ') (see
// mmpp.StationaryAppVariance, derived independently). Both relaxation
// times — the application lifetime 1/μ' and the user lifetime 1/μ —
// appear, which is exactly the "correlation from milliseconds to months"
// structure the paper argues conventional models miss.
type IDC struct {
	lamBar float64
	c1, a1 float64 // c1·e^{−a1·u}  (application time scale μ')
	c2, a2 float64 // c2·e^{−a2·u}  (user time scale μ)
}

// NewIDC computes the closed-form IDC of a symmetric model. It returns an
// error for asymmetric models (use the simulator's stats.IDC there) and
// for the degenerate μ = μ' case (a removable singularity not needed for
// any paper parameter set).
func (m *Model) NewIDC() (*IDC, error) {
	ok, lambdaApp, muApp, lambdaMsg, fanout := m.Symmetric()
	if !ok {
		return nil, fmt.Errorf("core: closed-form IDC requires a symmetric model")
	}
	if muApp == m.Mu {
		return nil, fmt.Errorf("core: closed-form IDC needs μ' ≠ μ")
	}
	nu := m.Nu()
	la := float64(len(m.Apps)) * lambdaApp / muApp // l·a'
	perApp := float64(fanout) * lambdaMsg          // m·λ''
	lLambdaApp := float64(len(m.Apps)) * lambdaApp // l·λ'

	sigmaXY := lLambdaApp * nu / (m.Mu + muApp)
	varY := nu*la + la*la*nu*muApp/(m.Mu+muApp)
	d := lLambdaApp * sigmaXY / (muApp - m.Mu)

	r2 := perApp * perApp
	return &IDC{
		lamBar: nu * la * perApp,
		c1:     r2 * (varY - d),
		a1:     muApp,
		c2:     r2 * d,
		a2:     m.Mu,
	}, nil
}

// At evaluates IDC(t) using ∫₀ᵗ(t−u)e^{−au}du = t/a − (1−e^{−at})/a².
func (idc *IDC) At(t float64) float64 {
	if t <= 0 {
		return 1
	}
	integral := idc.c1*IDCKernel(idc.a1, t) + idc.c2*IDCKernel(idc.a2, t)
	return 1 + 2*integral/(idc.lamBar*t)
}

// IDCKernel evaluates ∫₀ᵗ(t−u)e^{−au}du = t/a − (1−e^{−at})/a², the
// building block of every doubly-stochastic-Poisson IDC curve, stably for
// small at. Exported so the fitting layer can build the same basis
// functions it inverts.
func IDCKernel(a, t float64) float64 {
	at := a * t
	if at < 1e-6 {
		// Series: ∫(t−u)e^{−au}du ≈ t²/2 − a t³/6.
		return t*t/2 - a*t*t*t/6
	}
	return t/a + math.Expm1(-at)/(a*a)
}

// Limit returns the t→∞ asymptote IDC(∞) = 1 + 2(c1/a1 + c2/a2)/λ̄, the
// single number that summarises total burstiness. For the paper
// parameters the user term dominates: long-range rate modulation is the
// mechanism behind the mountains.
func (idc *IDC) Limit() float64 {
	return 1 + 2*(idc.c1/idc.a1+idc.c2/idc.a2)/idc.lamBar
}
