package solver

import (
	"fmt"
	"math"

	"hap/internal/core"
	"hap/internal/linalg"
)

// This file extends the matrix-geometric solution with the exact sojourn
// (delay) distribution: an arrival that finds z messages in the system
// (including the one in service, whose remaining time is memoryless)
// waits through z+1 exponential service stages, so
//
//	P(T > y) = Σ_z P_arr(z) · P(Erlang(z+1, μ) > y)
//
// with the arrival-weighted queue distribution P_arr(z) ∝ π_z·rates
// (PASTA does not hold — arrivals cluster into busy states, which is the
// whole point of the model).

// DelayDistribution is the exact sojourn-time law of a solved QBD.
type DelayDistribution struct {
	mu   float64
	parr []float64 // arrival-weighted P(z messages seen), z = 0..len-1
}

// DelayDistribution computes the arrival-weighted queue-length law up to
// the point where the residual tail mass drops below tailTol (default
// 1e-10).
func (qb *QBD) DelayDistribution(tailTol float64) *DelayDistribution {
	if tailTol <= 0 {
		tailTol = 1e-10
	}
	lam := qb.MeanRate()
	var parr []float64
	// z = 0 term.
	var w0 float64
	for i, p := range qb.Pi0 {
		w0 += p * qb.Rates[i]
	}
	parr = append(parr, w0/lam)
	// z >= 1 terms: π_z = π₁ R^{z−1}.
	cur := append([]float64(nil), qb.Pi1...)
	total := parr[0]
	for z := 1; z < 1<<20; z++ {
		var w float64
		for i, p := range cur {
			w += p * qb.Rates[i]
		}
		w /= lam
		parr = append(parr, w)
		total += w
		if 1-total < tailTol {
			break
		}
		cur = linalg.VecMat(cur, qb.R)
	}
	return &DelayDistribution{mu: qb.Mu, parr: parr}
}

// CCDF returns P(sojourn > y).
func (d *DelayDistribution) CCDF(y float64) float64 {
	if y <= 0 {
		return 1
	}
	// Erlang(k, μ) tail = P(Poisson(μy) < k); accumulate the Poisson pmf
	// once and reuse across k.
	x := d.mu * y
	pmf := math.Exp(-x)
	cdfPois := pmf // P(N <= 0)
	var ccdf float64
	for z, p := range d.parr {
		// P(Erlang(z+1) > y) = P(Poisson(x) <= z) = cdfPois at z.
		ccdf += p * cdfPois
		// Advance Poisson cdf to z+1 for the next term.
		pmf *= x / float64(z+1)
		cdfPois += pmf
		if cdfPois > 1 { // guard accumulation drift
			cdfPois = 1
		}
	}
	return ccdf
}

// Mean returns E[T] = Σ P_arr(z)·(z+1)/μ; it equals N̄/λ̄ by Little up to
// the tail truncation.
func (d *DelayDistribution) Mean() float64 {
	var m float64
	for z, p := range d.parr {
		m += p * float64(z+1)
	}
	return m / d.mu
}

// Quantile returns the p-quantile of the sojourn time by bisection on the
// CCDF.
func (d *DelayDistribution) Quantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	target := 1 - p
	lo, hi := 0.0, 10*d.Mean()+10/d.mu
	for d.CCDF(hi) > target {
		hi *= 2
	}
	for i := 0; i < 200 && hi-lo > 1e-12*hi; i++ {
		mid := (lo + hi) / 2
		if d.CCDF(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// DelayQuantiles computes exact sojourn-time quantiles of HAP/M/1 via the
// matrix-geometric solution (see Solution0MG for the bounds semantics).
func DelayQuantiles(m *core.Model, opts *Options, ps ...float64) ([]float64, error) {
	if opts == nil {
		opts = &Options{}
	}
	muMsg, ok := m.UniformServiceRate()
	if !ok {
		return nil, fmt.Errorf("solver: delay quantiles require a uniform message service rate")
	}
	proc, err := modulator(m, opts)
	if err != nil {
		return nil, err
	}
	qb, err := SolveQBD(opts.ctx(), proc, muMsg, RMethodLogReduction, opts.Tol)
	if qb == nil {
		return nil, err
	}
	d := qb.DelayDistribution(1e-10)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = d.Quantile(p)
	}
	return out, err
}
