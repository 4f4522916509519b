package core

import (
	"math"

	"hap/internal/quad"
)

// This file implements the Solution-2 closed forms for the message
// interarrival time (Equations 7–11). With ν = λ/μ, aᵢ = λᵢ/μᵢ and
// Λᵢ = Σⱼ λᵢⱼ define
//
//	L(t) = exp(Σᵢ aᵢ (e^{-Λᵢ t} − 1))        (L' = −L·M)
//	M(t) = Σᵢ aᵢ Λᵢ e^{-Λᵢ t}                (M' = −N)
//	N(t) = Σᵢ aᵢ Λᵢ² e^{-Λᵢ t}
//
// Conditioning the upper levels as M/M/∞ populations and weighting states
// by their arrival rates yields the complementary CDF and density of the
// interarrival time seen by messages:
//
//	Ā(t) = M(t) L(t) e^{ν(L(t)−1)} / M(0)
//	a(t) = e^{ν(L(t)−1)} [L·N + L·M² + ν·L²·M²] / M(0)
//
// and the mean rate λ̄ = ν·M(0) (Equation 4). These are the curves of
// Figures 9 and 10.

// Interarrival bundles the closed-form interarrival law of a model. Create
// it with Model.Interarrival; it precomputes the per-type constants.
type Interarrival struct {
	nu  float64
	a   []float64 // aᵢ
	lam []float64 // Λᵢ
	m0  float64   // M(0) = Σ aᵢΛᵢ
}

// Interarrival returns the Solution-2 closed-form interarrival law.
func (m *Model) Interarrival() *Interarrival {
	ia := &Interarrival{nu: m.Nu()}
	for i, app := range m.Apps {
		ia.a = append(ia.a, m.AppLoad(i))
		ia.lam = append(ia.lam, app.TotalMessageRate())
	}
	for i := range ia.a {
		ia.m0 += ia.a[i] * ia.lam[i]
	}
	return ia
}

// L evaluates L(t) = exp(Σᵢ aᵢ(e^{-Λᵢt} − 1)).
func (ia *Interarrival) L(t float64) float64 {
	var e float64
	for i := range ia.a {
		e += ia.a[i] * math.Expm1(-ia.lam[i]*t)
	}
	return math.Exp(e)
}

// M evaluates M(t) = Σᵢ aᵢΛᵢ e^{-Λᵢt}.
func (ia *Interarrival) M(t float64) float64 {
	var s float64
	for i := range ia.a {
		s += ia.a[i] * ia.lam[i] * math.Exp(-ia.lam[i]*t)
	}
	return s
}

// N evaluates N(t) = Σᵢ aᵢΛᵢ² e^{-Λᵢt}.
func (ia *Interarrival) N(t float64) float64 {
	var s float64
	for i := range ia.a {
		s += ia.a[i] * ia.lam[i] * ia.lam[i] * math.Exp(-ia.lam[i]*t)
	}
	return s
}

// MeanRate returns λ̄ = ν·M(0).
func (ia *Interarrival) MeanRate() float64 { return ia.nu * ia.m0 }

// CCDF returns Ā(t), the probability the interarrival exceeds t.
func (ia *Interarrival) CCDF(t float64) float64 {
	if t < 0 {
		return 1
	}
	l := ia.L(t)
	return ia.M(t) * l * math.Exp(ia.nu*(l-1)) / ia.m0
}

// PDF returns the interarrival density a(t) (Equation 10).
func (ia *Interarrival) PDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	l := ia.L(t)
	mm := ia.M(t)
	nn := ia.N(t)
	return math.Exp(ia.nu*(l-1)) * (l*nn + l*mm*mm + ia.nu*l*l*mm*mm) / ia.m0
}

// PDFAtZero returns a(0) = N(0)/M(0) + (1+ν)·M(0): 9.28 for the Figure 9
// parameters, against the equal-load Poisson's 7.5.
func (ia *Interarrival) PDFAtZero() float64 {
	return ia.N(0)/ia.m0 + (1+ia.nu)*ia.m0
}

// ZeroRateMass returns the stationary, rate-weighted-excluded probability
// that the modulator generates no arrivals at all, e^{ν(L(∞)−1)}. It is
// the mass deficit that makes the closed-form mean interarrival
// (1 − ZeroRateMass)/λ̄ rather than exactly 1/λ̄.
func (ia *Interarrival) ZeroRateMass() float64 {
	var sumA float64
	for _, av := range ia.a {
		sumA += av
	}
	linf := math.Exp(-sumA)
	return math.Exp(ia.nu * (linf - 1))
}

// Mean returns E[T] = ∫Ā(t)dt = (1 − ZeroRateMass)/λ̄, available in closed
// form via d/dt e^{ν(L−1)} = −νLM e^{ν(L−1)}.
func (ia *Interarrival) Mean() float64 {
	return (1 - ia.ZeroRateMass()) / ia.MeanRate()
}

// SecondMoment returns E[T²] = 2∫t·Ā(t)dt by adaptive quadrature.
func (ia *Interarrival) SecondMoment() float64 {
	// The first quadrature window must straddle the bulk of the law, not
	// just its slowest tail: for a many-sparse-sources parameterisation
	// (large ν, tiny per-source rate — fitters produce these on
	// Poisson-like traces) 1/minLam is thousands of mean interarrivals
	// and adaptive Simpson would step clean over the mass near zero.
	scale := math.Min(1/ia.minLam(), ia.Mean())
	return 2 * quad.ToInf(func(t float64) float64 { return t * ia.CCDF(t) }, 0, scale, 1e-12)
}

// SCV returns the squared coefficient of variation of the interarrival
// time; > 1 signals burstier-than-Poisson arrivals.
func (ia *Interarrival) SCV() float64 {
	m := ia.Mean()
	return ia.SecondMoment()/(m*m) - 1
}

// Laplace returns A*(s) = E[e^{-sT}] = 1 − s·∫₀^∞ Ā(t)e^{-st}dt, the form
// the σ-algorithm needs. Integrating the CCDF avoids the oscillation-free
// but spiky density near zero.
func (ia *Interarrival) Laplace(s float64) float64 {
	if s == 0 {
		return 1
	}
	scale := math.Min(1/(ia.minLam()+s), ia.Mean())
	integral := quad.ToInf(func(t float64) float64 {
		return ia.CCDF(t) * math.Exp(-s*t)
	}, 0, scale, 1e-13)
	return 1 - s*integral
}

func (ia *Interarrival) minLam() float64 {
	min := ia.lam[0]
	for _, l := range ia.lam[1:] {
		if l < min {
			min = l
		}
	}
	return min
}

// Sample is not provided: the closed form destroys interarrival
// correlation by construction (the paper's Solutions 1 and 2 share this
// loss); to generate correlated HAP traffic use package sim.

// CCDFGivenUsers returns the interarrival complementary CDF conditioned on
// exactly x users being present for the whole interval:
//
//	Ā(t | x) = M(t) · L(t)^x / M(0)
//
// With x = 1 and a single application type this is the 2-level HAP /
// ON-OFF law (see TwoLevel), which is how the paper's "ON-OFF is a 2-level
// HAP" identity is realised in the closed forms.
func (ia *Interarrival) CCDFGivenUsers(x int, t float64) float64 {
	if x < 1 {
		panic("core: CCDFGivenUsers needs x >= 1 (zero users host no arrivals)")
	}
	if t < 0 {
		return 1
	}
	return ia.M(t) * math.Pow(ia.L(t), float64(x)) / ia.m0
}

// CrossingsWithPoisson finds where a(t) crosses the density of the
// equal-rate Poisson process (λ̄e^{-λ̄t}) on (0, tMax], scanning n points
// and bisecting each sign change. Figure 9 reports two crossings
// (≈0.077 and ≈0.53 for the P9 parameters).
func (ia *Interarrival) CrossingsWithPoisson(tMax float64, n int) []float64 {
	rate := ia.MeanRate()
	diff := func(t float64) float64 { return ia.PDF(t) - rate*math.Exp(-rate*t) }
	var out []float64
	step := tMax / float64(n)
	prevT := step / 1e6 // avoid the t=0 point itself
	prevV := diff(prevT)
	for i := 1; i <= n; i++ {
		t := float64(i) * step
		v := diff(t)
		if prevV == 0 || prevV*v < 0 {
			if root, _, err := quad.Bisect(diff, prevT, t, 1e-10); err == nil {
				out = append(out, root)
			}
		}
		prevT, prevV = t, v
	}
	return out
}
