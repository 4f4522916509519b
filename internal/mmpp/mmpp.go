// Package mmpp represents Markov-modulated Poisson processes and the
// paper's Section 3.1 mapping of a HAP onto one: the modulating chain is
// the (l+1)-dimensional lattice of user and per-type application counts
// (Figure 6), or the 2-dimensional (x, y) chain for symmetric parameters
// (Figure 7). The infinite state space is truncated at caller-chosen
// bounds, as the paper's numerics do.
//
// A 2-state MMPP — the prior-art approximation of Heffes–Lucantoni-style
// modelling that the paper positions HAP against — is also provided, with
// a moment fit from any modulated process's rate statistics.
package mmpp

import (
	"context"
	"fmt"
	"math"

	"hap/internal/core"
	"hap/internal/markov"
)

// MMPP is a finite Markov-modulated Poisson process: a modulating CTMC and
// one Poisson arrival rate per state.
type MMPP struct {
	// Chain is the modulating CTMC.
	Chain *markov.Chain
	// Rates[i] is the Poisson arrival rate while the chain is in state i.
	Rates []float64

	pi []float64 // cached stationary law
}

// New builds an MMPP; the rate vector length must match the chain size.
func New(chain *markov.Chain, rates []float64) *MMPP {
	if chain.N() != len(rates) {
		panic(fmt.Sprintf("mmpp: %d states but %d rates", chain.N(), len(rates)))
	}
	for _, r := range rates {
		if r < 0 || math.IsNaN(r) {
			panic("mmpp: rates must be non-negative")
		}
	}
	return &MMPP{Chain: chain, Rates: rates}
}

// Stationary returns (and caches) the stationary law of the modulator.
func (m *MMPP) Stationary() ([]float64, error) {
	return m.StationaryCtx(nil)
}

// StationaryCtx is Stationary with cooperative cancellation: the solve
// (markov's Chain.Stationary: direct GTH, or power iteration for a band
// too wide to store) polls ctx (nil means "never cancelled") and aborts
// with the context error. Cancelled solves are not cached.
func (m *MMPP) StationaryCtx(ctx context.Context) ([]float64, error) {
	if m.pi != nil {
		return m.pi, nil
	}
	pi, _, err := m.Chain.Stationary(&markov.SteadyOptions{Tol: 1e-11, Ctx: ctx})
	if err != nil {
		return nil, err
	}
	m.pi = pi
	return pi, nil
}

// MeanRate returns λ̄ = Σ πᵢ rᵢ.
func (m *MMPP) MeanRate() (float64, error) {
	pi, err := m.Stationary()
	if err != nil {
		return 0, err
	}
	return markov.ExpectedValue(pi, func(i int) float64 { return m.Rates[i] }), nil
}

// RateVariance returns Var(R) of the stationary modulated rate, the
// second-order burstiness driver.
func (m *MMPP) RateVariance() (float64, error) {
	pi, err := m.Stationary()
	if err != nil {
		return 0, err
	}
	mean := markov.ExpectedValue(pi, func(i int) float64 { return m.Rates[i] })
	second := markov.ExpectedValue(pi, func(i int) float64 { return m.Rates[i] * m.Rates[i] })
	return second - mean*mean, nil
}

// AsymptoticIDC returns the t→∞ limit of the index of dispersion for
// counts estimated from the rate process: 1 + 2·Var(R)·τ/λ̄, where τ is
// the supplied correlation time of the rate process. For a 2-state MMPP τ
// is 1/(q01+q10) exactly; for HAP chains a characteristic modulation time
// must be chosen by the caller (e.g. 1/μ' for application-dominated
// burstiness).
func (m *MMPP) AsymptoticIDC(tau float64) (float64, error) {
	rate, err := m.MeanRate()
	if err != nil {
		return 0, err
	}
	if rate == 0 {
		return 0, nil
	}
	v, err := m.RateVariance()
	if err != nil {
		return 0, err
	}
	return 1 + 2*v*tau/rate, nil
}

// InterarrivalMixture returns the rate-weighted exponential mixture that
// Solution 1 uses as the interarrival law: branch k has rate Rates[k] and
// weight π(k)·Rates[k]/λ̄, and zero-rate states carry no weight (their
// mass is ZeroMass). The stationary solve polls ctx (nil means "never
// cancelled") and aborts with the context error.
func (m *MMPP) InterarrivalMixture(ctx context.Context) (*core.Mixture, error) {
	pi, err := m.StationaryCtx(ctx)
	if err != nil {
		return nil, err
	}
	mx := &core.Mixture{}
	for i, p := range pi {
		if r := m.Rates[i]; r <= 0 {
			mx.ZeroMass += p
		} else if p > 0 {
			mx.MeanRate += p * r
			mx.Weights = append(mx.Weights, p*r)
			mx.Rates = append(mx.Rates, r)
		}
	}
	if mx.MeanRate == 0 {
		return nil, fmt.Errorf("mmpp: process has zero mean rate")
	}
	for i := range mx.Weights {
		mx.Weights[i] /= mx.MeanRate
	}
	return mx, nil
}

// MMPP2 is the classical 2-state MMPP with arrival rates R0, R1 and
// switching rates Q01 (state 0 → 1) and Q10.
type MMPP2 struct {
	R0, R1   float64
	Q01, Q10 float64
}

// Validate checks parameters: finite arrival rates R0, R1 >= 0 and
// finite switching rates Q01, Q10 > 0. NaN fails every check.
func (m MMPP2) Validate() error {
	if !(m.R0 >= 0) || !(m.R1 >= 0) || !(m.Q01 > 0) || !(m.Q10 > 0) ||
		math.IsInf(m.R0, 1) || math.IsInf(m.R1, 1) || math.IsInf(m.Q01, 1) || math.IsInf(m.Q10, 1) {
		return fmt.Errorf("mmpp: invalid MMPP2 %+v", m)
	}
	return nil
}

// StationaryP0 returns the stationary probability of state 0.
func (m MMPP2) StationaryP0() float64 { return m.Q10 / (m.Q01 + m.Q10) }

// MeanRate returns π₀R₀ + π₁R₁.
func (m MMPP2) MeanRate() float64 {
	p0 := m.StationaryP0()
	return p0*m.R0 + (1-p0)*m.R1
}

// RateVariance returns the stationary variance of the modulated rate.
func (m MMPP2) RateVariance() float64 {
	p0 := m.StationaryP0()
	d := m.R1 - m.R0
	return p0 * (1 - p0) * d * d
}

// CorrelationTime returns 1/(Q01+Q10), the exponential decay time of rate
// autocorrelation.
func (m MMPP2) CorrelationTime() float64 { return 1 / (m.Q01 + m.Q10) }

// AsymptoticIDC returns the closed-form t→∞ IDC limit
// 1 + 2·Var(R)/(λ̄·(Q01+Q10)).
func (m MMPP2) AsymptoticIDC() float64 {
	rate := m.MeanRate()
	if rate == 0 {
		return 0
	}
	return 1 + 2*m.RateVariance()*m.CorrelationTime()/rate
}

// InterarrivalLaplace returns the exact Laplace–Stieltjes transform of
// the arrival-stationary interarrival time,
//
//	A*(s) = φ·(sI − D₀)⁻¹·r,  D₀ = Q − diag(r),  φₖ = πₖrₖ/λ̄,
//
// expanded in closed form for the 2×2 case (Δ is the determinant of
// sI − D₀):
//
//	Δ(s) = (s+q01+r0)(s+q10+r1) − q01·q10
//	u0   = [(s+q10+r1)·r0 + q01·r1]/Δ
//	u1   = [q10·r0 + (s+q01+r0)·r1]/Δ
//	A*(s) = φ0·u0 + φ1·u1
//
// This is what a G/M/1 reduction over a *fitted* MMPP2 consumes (the
// control plane's delay path): gm1.Solve takes the transform directly,
// no chain solve. Degenerates to λ/(λ+s) when R0 = R1 = λ.
func (m MMPP2) InterarrivalLaplace() (func(s float64) float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	lam := m.MeanRate()
	if lam <= 0 {
		return nil, fmt.Errorf("mmpp: MMPP2 %+v has zero arrival rate", m)
	}
	p0 := m.StationaryP0()
	phi0 := p0 * m.R0 / lam
	phi1 := (1 - p0) * m.R1 / lam
	r0, r1, q01, q10 := m.R0, m.R1, m.Q01, m.Q10
	return func(s float64) float64 {
		den := (s+q01+r0)*(s+q10+r1) - q01*q10
		u0 := ((s+q10+r1)*r0 + q01*r1) / den
		u1 := (q10*r0 + (s+q01+r0)*r1) / den
		return phi0*u0 + phi1*u1
	}, nil
}

// General converts the 2-state process into the general representation.
func (m MMPP2) General() *MMPP {
	c := markov.NewChain(2)
	c.Add(0, 1, m.Q01)
	c.Add(1, 0, m.Q10)
	return New(c, []float64{m.R0, m.R1})
}

// FitMMPP2 moment-matches a 2-state MMPP to a modulated process with mean
// rate, rate variance and rate-correlation time tau, splitting states
// symmetrically (π₀ = π₁ = 1/2): R0,1 = mean ∓ std, Q01 = Q10 = 1/(2τ).
// This is the kind of reduction the 2-state-MMPP literature applies to
// superposed traffic, and what HAP's hierarchy renders insufficient.
func FitMMPP2(meanRate, rateVar, tau float64) (MMPP2, error) {
	if meanRate <= 0 || rateVar < 0 || tau <= 0 {
		return MMPP2{}, fmt.Errorf("mmpp: bad fit inputs mean=%v var=%v tau=%v", meanRate, rateVar, tau)
	}
	std := math.Sqrt(rateVar)
	r0 := meanRate - std
	if r0 < 0 {
		r0 = 0 // an interrupted Poisson process
	}
	return MMPP2{
		R0:  r0,
		R1:  meanRate + std,
		Q01: 1 / (2 * tau),
		Q10: 1 / (2 * tau),
	}, nil
}
