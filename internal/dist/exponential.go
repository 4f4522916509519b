package dist

import (
	"math"
	"math/rand"
)

// Exponential is the exponential distribution with rate Lambda (mean
// 1/Lambda). It is the law assumed for every HAP parameter in the paper's
// analysis sections.
type Exponential struct {
	Lambda float64
}

// NewExponential returns an exponential distribution with the given rate.
func NewExponential(rate float64) Exponential {
	checkPositive("rate", rate)
	return Exponential{Lambda: rate}
}

// Sample draws an exponential variate.
func (e Exponential) Sample(r *rand.Rand) float64 { return r.ExpFloat64() / e.Lambda }

// Mean returns 1/rate.
func (e Exponential) Mean() float64 { return 1 / e.Lambda }

// Var returns 1/rate².
func (e Exponential) Var() float64 { return 1 / (e.Lambda * e.Lambda) }

// PDF returns the density λe^{-λt}.
func (e Exponential) PDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	return e.Lambda * math.Exp(-e.Lambda*t)
}

// CDF returns 1 - e^{-λt}.
func (e Exponential) CDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	return -math.Expm1(-e.Lambda * t)
}

// Laplace returns λ/(λ+s).
func (e Exponential) Laplace(s float64) float64 { return e.Lambda / (e.Lambda + s) }

// Quantile returns -ln(1-p)/λ.
func (e Exponential) Quantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	return -math.Log1p(-p) / e.Lambda
}
