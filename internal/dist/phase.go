package dist

import (
	"math"
	"math/rand"
)

// Erlang is the Erlang-k distribution: the sum of K independent exponentials
// of rate Rate each (mean K/Rate, SCV 1/K). It models smoother-than-Poisson
// holding times.
type Erlang struct {
	K    int
	Rate float64
}

// NewErlang returns an Erlang-k distribution with k phases of the given
// per-phase rate.
func NewErlang(k int, rate float64) Erlang {
	if k < 1 {
		panic("dist: Erlang needs k >= 1")
	}
	checkPositive("rate", rate)
	return Erlang{K: k, Rate: rate}
}

// Sample draws an Erlang variate as a sum of K exponentials.
func (e Erlang) Sample(r *rand.Rand) float64 {
	var sum float64
	for i := 0; i < e.K; i++ {
		sum += r.ExpFloat64()
	}
	return sum / e.Rate
}

// Mean returns K/Rate.
func (e Erlang) Mean() float64 { return float64(e.K) / e.Rate }

// Var returns K/Rate².
func (e Erlang) Var() float64 { return float64(e.K) / (e.Rate * e.Rate) }

// Laplace returns (Rate/(Rate+s))^K.
func (e Erlang) Laplace(s float64) float64 {
	return math.Pow(e.Rate/(e.Rate+s), float64(e.K))
}

// PDF returns the Erlang density.
func (e Erlang) PDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	k := float64(e.K)
	lg, _ := math.Lgamma(k)
	return math.Exp(k*math.Log(e.Rate) + (k-1)*math.Log(t) - e.Rate*t - lg) // λ^k t^{k-1} e^{-λt}/(k-1)!
}

// CDF returns the Erlang CDF via the regularised lower incomplete gamma,
// computed from the Poisson tail identity P(T <= t) = P(Pois(λt) >= k).
func (e Erlang) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	x := e.Rate * t
	// 1 - sum_{n=0}^{k-1} e^{-x} x^n / n!
	term := math.Exp(-x)
	sum := term
	for n := 1; n < e.K; n++ {
		term *= x / float64(n)
		sum += term
	}
	return 1 - sum
}

// HyperExponential is a probabilistic mixture of exponentials: with
// probability P[i] the variate is Exp(Rates[i]). It is the exact law of the
// HAP message interarrival approximation in Solution 1, where each branch
// corresponds to one state of the modulating Markov chain.
type HyperExponential struct {
	P     []float64
	Rates []float64
	cum   []float64
}

// NewHyperExponential builds a mixture of exponentials. Probabilities must
// be non-negative; they are normalised to sum to 1. Branches with zero
// probability are retained (they do not affect sampling).
func NewHyperExponential(p, rates []float64) *HyperExponential {
	if len(p) != len(rates) || len(p) == 0 {
		panic("dist: hyperexponential needs matching non-empty p and rates")
	}
	var total float64
	for i, pi := range p {
		if pi < 0 {
			panic("dist: hyperexponential probabilities must be >= 0")
		}
		checkPositive("rate", rates[i])
		total += pi
	}
	if total <= 0 {
		panic("dist: hyperexponential probabilities sum to zero")
	}
	h := &HyperExponential{
		P:     make([]float64, len(p)),
		Rates: append([]float64(nil), rates...),
		cum:   make([]float64, len(p)),
	}
	var c float64
	for i, pi := range p {
		h.P[i] = pi / total
		c += h.P[i]
		h.cum[i] = c
	}
	h.cum[len(h.cum)-1] = 1
	return h
}

// Sample draws a branch, then an exponential from it.
func (h *HyperExponential) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	// Branch count can be large (one per Markov state); binary search.
	lo, hi := 0, len(h.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if h.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return r.ExpFloat64() / h.Rates[lo]
}

// Mean returns Σ pᵢ/λᵢ.
func (h *HyperExponential) Mean() float64 {
	var m float64
	for i, p := range h.P {
		m += p / h.Rates[i]
	}
	return m
}

// SecondMoment returns E[T²] = Σ 2pᵢ/λᵢ².
func (h *HyperExponential) SecondMoment() float64 {
	var m2 float64
	for i, p := range h.P {
		m2 += 2 * p / (h.Rates[i] * h.Rates[i])
	}
	return m2
}

// Var returns the variance.
func (h *HyperExponential) Var() float64 {
	m := h.Mean()
	return h.SecondMoment() - m*m
}

// PDF returns Σ pᵢ λᵢ e^{-λᵢ t}.
func (h *HyperExponential) PDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	var f float64
	for i, p := range h.P {
		f += p * h.Rates[i] * math.Exp(-h.Rates[i]*t)
	}
	return f
}

// CDF returns 1 - Σ pᵢ e^{-λᵢ t}.
func (h *HyperExponential) CDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	var s float64
	for i, p := range h.P {
		s += p * math.Exp(-h.Rates[i]*t)
	}
	return 1 - s
}

// Laplace returns Σ pᵢ λᵢ/(λᵢ+s). This exactness is what makes Solution 1's
// σ fixed point cheap: no numerical quadrature is required.
func (h *HyperExponential) Laplace(s float64) float64 {
	var v float64
	for i, p := range h.P {
		v += p * h.Rates[i] / (h.Rates[i] + s)
	}
	return v
}
