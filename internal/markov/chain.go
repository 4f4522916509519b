// Package markov implements the continuous-time Markov chain machinery the
// HAP solvers stand on: a sparse rate-matrix representation, a direct
// banded GTH stationary solve, iterative steady-state solvers (the
// paper's brute-force approach is exactly a sweep iteration on the balance
// equations), the truncated-Poisson law of an admission-capped M/M/∞
// population, the M/M/1/K law the solvers' tests check against, and a
// lattice indexer for multi-dimensional state spaces such as HAP's
// (x, y₁..y_l, z).
//
// Go has no strong linear-algebra standard library; these chains are sparse
// and banded, so the direct solve works on the band alone (gth.go),
// uniformised power iteration covers chains whose band is too wide for it,
// and Gauss–Seidel sweeps Solution 0's joint chain as the paper does.
package markov

import (
	"context"
	"fmt"
	"math"

	"hap/internal/haperr"
	"hap/internal/obs"
)

// Runtime metrics: a sweep over a multi-million-state chain is the unit of
// work the brute-force Solution 0 spends minutes in, so sweeps are counted
// per convergence check (checkEvery batches), not per state — the inner
// loops stay untouched.
var (
	obsSweeps = obs.NewCounter("hap_markov_sweeps_total",
		"Steady-state iteration sweeps (Gauss-Seidel and uniformised power iteration).")
	obsDirect = obs.NewCounter("hap_markov_direct_solves_total",
		"Stationary laws computed by direct GTH state reduction (no sweeps).")
	obsSweepResidual = obs.NewFloatGauge("hap_markov_last_residual",
		"Total-variation residual at the most recent convergence check.")
)

// Transition is one outgoing rate entry of a CTMC generator row.
type Transition struct {
	To   int
	Rate float64
}

// Chain is a finite-state CTMC described by its transition rates. Diagonal
// entries are implicit (negative row sums). States are dense integers
// 0..N()-1.
type Chain struct {
	rows    [][]Transition
	outRate []float64
}

// NewChain creates a chain with n states and no transitions.
func NewChain(n int) *Chain {
	if n <= 0 {
		panic("markov: chain needs at least one state")
	}
	return &Chain{rows: make([][]Transition, n), outRate: make([]float64, n)}
}

// N returns the number of states.
func (c *Chain) N() int { return len(c.rows) }

// Add records a transition from→to with the given rate. Zero rates are
// ignored; negative rates and self loops are rejected.
func (c *Chain) Add(from, to int, rate float64) {
	if rate == 0 {
		return
	}
	if rate < 0 || math.IsNaN(rate) {
		panic(fmt.Sprintf("markov: negative or NaN rate %v", rate))
	}
	if from == to {
		panic("markov: self loops are meaningless in a CTMC")
	}
	c.rows[from] = append(c.rows[from], Transition{To: to, Rate: rate})
	c.outRate[from] += rate
}

// OutRate returns the total departure rate of state i.
func (c *Chain) OutRate(i int) float64 { return c.outRate[i] }

// Transitions returns the outgoing transitions of state i. The slice is
// owned by the chain; callers must not modify it.
func (c *Chain) Transitions(i int) []Transition { return c.rows[i] }

// MaxOutRate returns the uniformisation constant max_i OutRate(i).
func (c *Chain) MaxOutRate() float64 {
	var m float64
	for _, r := range c.outRate {
		if r > m {
			m = r
		}
	}
	return m
}

// SteadyOptions controls the iterative solvers.
type SteadyOptions struct {
	// Tol is the total-variation distance (Σ|Δπ|/2) between two iterates
	// checked checkEvery sweeps apart (every sweep for Gauss–Seidel) below
	// which the iteration is declared converged (default 1e-10).
	Tol     float64
	MaxIter int // iteration budget (default 200000)
	// Pi0 optionally warm-starts the iteration; it is normalised first.
	Pi0 []float64
	// Ctx, when non-nil, is polled every sweep; a cancelled context stops
	// the iteration and returns the context error with the current
	// (normalised) iterate.
	Ctx context.Context
}

// checkEvery is the power iteration's convergence test period in sweeps.
const checkEvery = 10

func (o *SteadyOptions) defaults(n int) SteadyOptions {
	out := SteadyOptions{Tol: 1e-10, MaxIter: 200000}
	if o != nil {
		if o.Tol > 0 {
			out.Tol = o.Tol
		}
		if o.MaxIter > 0 {
			out.MaxIter = o.MaxIter
		}
		out.Pi0 = o.Pi0
		out.Ctx = o.Ctx
	}
	return out
}

// cancelled reports the context error, if any.
func (o *SteadyOptions) cancelled() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// ErrNotConverged reports that the iteration budget ran out; the best
// iterate is still returned alongside it. It aliases haperr.ErrNotConverged
// so either spelling matches under errors.Is.
var ErrNotConverged = haperr.ErrNotConverged

// Stats reports how a steady-state iteration went: sweeps used, the final
// total-variation change between convergence checks, and whether the
// tolerance was met. It is returned even on error, so budget-bound callers
// can see how far the sweep got.
type Stats struct {
	Iterations int
	Residual   float64
	Converged  bool
}

// SteadyState computes the stationary distribution by uniformised power
// iteration: π ← πP with P = I + Q/Λ, which preserves non-negativity and
// total mass at every step. It is the robust default for the large HAP
// chains. It returns the distribution and the iteration diagnostics; the
// iterate is returned (normalised) even when the budget runs out or the
// context is cancelled.
func (c *Chain) SteadyState(opts *SteadyOptions) ([]float64, Stats, error) {
	o := opts.defaults(c.N())
	n := c.N()
	lam := c.MaxOutRate() * 1.02 // strictly above the max rate keeps P aperiodic
	if lam == 0 {
		// No transitions at all: any distribution is stationary; use uniform.
		pi := make([]float64, n)
		for i := range pi {
			pi[i] = 1 / float64(n)
		}
		return pi, Stats{Converged: true}, nil
	}
	pi := make([]float64, n)
	if o.Pi0 != nil && len(o.Pi0) == n {
		copy(pi, o.Pi0)
		normalise(pi)
	} else {
		for i := range pi {
			pi[i] = 1 / float64(n)
		}
	}
	next := make([]float64, n)
	prevCheck := make([]float64, n)
	copy(prevCheck, pi)
	residual := math.Inf(1)
	marked := 0
	for it := 1; it <= o.MaxIter; it++ {
		// next = pi * (I + Q/lam)
		for i := range next {
			next[i] = pi[i] * (1 - c.outRate[i]/lam)
		}
		for i, row := range c.rows {
			pin := pi[i]
			if pin == 0 {
				continue
			}
			for _, tr := range row {
				next[tr.To] += pin * tr.Rate / lam
			}
		}
		pi, next = next, pi
		if it%checkEvery == 0 {
			normalise(pi)
			residual = maxRelDiff(pi, prevCheck)
			obsSweeps.Add(int64(it - marked))
			marked = it
			obsSweepResidual.Set(residual)
			if residual < o.Tol {
				return pi, Stats{Iterations: it, Residual: residual, Converged: true}, nil
			}
			copy(prevCheck, pi)
		}
		// Poll every sweep: ctx.Err is an atomic load, invisible next to a
		// sweep over the whole chain, and large chains make even a few
		// sweeps between polls feel unresponsive.
		if err := o.cancelled(); err != nil {
			normalise(pi)
			obsSweeps.Add(int64(it - marked))
			return pi, Stats{Iterations: it, Residual: residual}, fmt.Errorf("markov: steady state: %w", err)
		}
	}
	normalise(pi)
	obsSweeps.Add(int64(o.MaxIter - marked))
	return pi, Stats{Iterations: o.MaxIter, Residual: residual}, fmt.Errorf("markov: steady state: %w", ErrNotConverged)
}

// GaussSeidel computes the stationary distribution by sweeping the global
// balance equations in place:
//
//	π(i) = Σ_{j≠i} π(j) q(j,i) / outRate(i)
//
// with normalisation after every sweep — the scheme the paper's Solution 0
// describes ("recompute probabilities for the states with x+y+...+z = k,
// starting from k = 0"). The visit order is the state index order, so build
// chains with a k-shell-ordered lattice if that sweep order is wanted.
// Requires every state to have positive out rate (irreducible chains do).
// The iterate is returned even when the budget runs out or the context is
// cancelled; Stats says how far it got.
func (c *Chain) GaussSeidel(opts *SteadyOptions) ([]float64, Stats, error) {
	o := opts.defaults(c.N())
	n := c.N()
	if err := o.cancelled(); err != nil {
		return nil, Stats{}, fmt.Errorf("markov: gauss-seidel: %w", err)
	}
	// Build the reverse adjacency once: in(i) lists (j, rate j→i).
	in := make([][]Transition, n)
	for j, row := range c.rows {
		for _, tr := range row {
			in[tr.To] = append(in[tr.To], Transition{To: j, Rate: tr.Rate})
		}
	}
	pi := make([]float64, n)
	if o.Pi0 != nil && len(o.Pi0) == n {
		copy(pi, o.Pi0)
		normalise(pi)
	} else {
		for i := range pi {
			pi[i] = 1 / float64(n)
		}
	}
	prev := make([]float64, n)
	residual := math.Inf(1)
	for it := 1; it <= o.MaxIter; it++ {
		copy(prev, pi)
		for i := 0; i < n; i++ {
			if c.outRate[i] == 0 {
				continue // absorbing; mass accumulates via normalisation
			}
			var inflow float64
			for _, tr := range in[i] {
				inflow += pi[tr.To] * tr.Rate
			}
			pi[i] = inflow / c.outRate[i]
		}
		normalise(pi)
		residual = maxRelDiff(pi, prev)
		obsSweeps.Inc()
		obsSweepResidual.Set(residual)
		if residual < o.Tol {
			return pi, Stats{Iterations: it, Residual: residual, Converged: true}, nil
		}
		// Poll every sweep — a sweep over a large chain dwarfs the check.
		if err := o.cancelled(); err != nil {
			return pi, Stats{Iterations: it, Residual: residual}, fmt.Errorf("markov: gauss-seidel: %w", err)
		}
	}
	return pi, Stats{Iterations: o.MaxIter, Residual: residual}, fmt.Errorf("markov: gauss-seidel: %w", ErrNotConverged)
}

func normalise(pi []float64) {
	var s float64
	for _, p := range pi {
		s += p
	}
	if s <= 0 {
		return
	}
	for i := range pi {
		pi[i] /= s
	}
}

// maxRelDiff returns the total-variation distance Σ|a-b|/2.
func maxRelDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		m += math.Abs(a[i] - b[i])
	}
	return m / 2
}

// ExpectedValue returns Σ πᵢ f(i).
func ExpectedValue(pi []float64, f func(i int) float64) float64 {
	var s float64
	for i, p := range pi {
		if p != 0 {
			s += p * f(i)
		}
	}
	return s
}
