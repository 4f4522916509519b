// Package gm1 solves the G/M/1 queue that Solutions 1 and 2 reduce HAP/M/1
// to: given the Laplace transform A*(s) of the interarrival time and the
// exponential service rate μ, the root σ of
//
//	σ = A*(μ − μσ),  0 < σ < 1
//
// determines the mean delay T = 1/(μ(1−σ)), the mean wait σ/(μ(1−σ)) and
// the mean queue length λ̄T by Little. (The wait is 0 with probability
// 1−σ and otherwise Exp(μ(1−σ)); Result carries only the means.)
//
// Two σ solvers are provided: the paper's averaging iteration
// ("σ-Algorithm": replace σ with the average of A*(μ−μσ) and σ until they
// agree) and a safeguarded bisection on the fixed-point residual, used as
// the robust default and as the ablation baseline.
package gm1

import (
	"context"
	"errors"
	"fmt"
	"math"

	"hap/internal/haperr"
	"hap/internal/obs"
	"hap/internal/quad"
)

// Runtime metrics: every σ solve records its iteration spend and outcome,
// so a sweep's fixed-point cost is visible live (Solutions 1 and 2 funnel
// through Solve).
var (
	obsSigmaIterations = obs.NewCounter("hap_gm1_sigma_iterations_total",
		"Transform evaluations spent by the sigma solvers (probes, bisection and fixed-point steps).")
	obsSolves = obs.NewCounterVec("hap_gm1_solves_total",
		"G/M/1 sigma solves by method and outcome.", "method", "outcome")
)

// recordSolve classifies one finished σ solve for the labelled counter.
func recordSolve(r Result, err error) {
	outcome := "converged"
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		outcome = "cancelled"
	case errors.Is(err, ErrTrivialRoot):
		outcome = "trivial_root"
	case errors.Is(err, ErrUnstable):
		outcome = "unstable"
	case errors.Is(err, haperr.ErrNotConverged):
		outcome = "not_converged"
	case errors.Is(err, haperr.ErrBadParameter):
		outcome = "bad_parameter"
	default:
		outcome = "error"
	}
	obsSolves.With(r.Method.String(), outcome).Inc()
	obsSigmaIterations.Add(int64(r.Iterations))
}

// Laplace is the Laplace–Stieltjes transform A*(s) of an interarrival
// distribution, defined for s >= 0 with A*(0) = 1.
type Laplace func(s float64) float64

// Result summarises a solved G/M/1 queue.
type Result struct {
	Sigma      float64 // probability an arrival finds the server busy
	Delay      float64 // mean sojourn time T = 1/(μ(1−σ))
	Wait       float64 // mean waiting time σ/(μ(1−σ))
	QueueLen   float64 // mean number in system λ̄·T (Little)
	Rho        float64 // utilisation λ̄/μ
	Lambda     float64 // arrival rate used for Little's result
	Mu         float64 // service rate
	Method     Method  // σ solver that produced the result
	Iterations int     // σ-solver iterations (probe scan + bisection / fixed-point steps)
	Residual   float64 // final fixed-point residual |A*(μ−μσ)−σ|
	Converged  bool    // tolerance met within the budget
	// Bracket records the bisection bracket probe history as flattened
	// (probe, h(probe)) pairs; nil for the fixed-point method.
	Bracket []float64
}

// Diag returns the solve diagnostics in the shared form.
func (r Result) Diag() haperr.Diag {
	return haperr.Diag{
		Iterations: r.Iterations,
		Residual:   r.Residual,
		Converged:  r.Converged,
		Bracket:    r.Bracket,
	}
}

// ErrUnstable reports λ̄ >= μ. It aliases haperr.ErrUnstable so either
// spelling matches under errors.Is.
var ErrUnstable = haperr.ErrUnstable

// ErrTrivialRoot reports that the paper's averaging iteration collapsed
// onto the trivial fixed point σ = 1 (every valid transform satisfies
// A*(0) = 1) even though the queue is stable. The result would be
// meaningless, so the error is returned instead; MethodBisect excludes the
// trivial root by construction.
var ErrTrivialRoot = haperr.ErrTrivialRoot

// Options tunes the σ solvers.
type Options struct {
	Tol     float64 // |A*(μ−μσ) − σ| tolerance (default 1e-10)
	MaxIter int     // iteration budget (default 10000)
	Method  Method  // solver choice (default MethodBisect)
	// WarmSigma, when inside (0, 1), seeds MethodBisect with the σ of a
	// previous solve of a nearby queue (a re-fitted model, a slightly
	// scaled load): the bracket is grown geometrically around it instead
	// of scanned down from 1, and the bisection runs over the resulting
	// narrow interval. A warm value far from the true root only costs the
	// expansion probes — correctness never depends on it. Ignored by
	// MethodPaper.
	WarmSigma float64
	// Ctx, when non-nil, is polled during the fixed-point iteration; a
	// cancelled context aborts the solve with the context error.
	Ctx context.Context
}

// Method selects a σ solver.
type Method int

// Available σ solvers.
const (
	// MethodBisect brackets the fixed point and bisects g(σ)−σ; it is
	// guaranteed to converge for any valid Laplace transform.
	MethodBisect Method = iota
	// MethodPaper is the averaging iteration from Section 3.2.2:
	// σ ← (A*(μ−μσ) + σ)/2 starting from 0.5.
	MethodPaper
)

func (m Method) String() string {
	switch m {
	case MethodBisect:
		return "bisect"
	case MethodPaper:
		return "paper-averaging"
	}
	return "unknown"
}

// Solve computes the G/M/1 queue for interarrival transform a, arrival
// rate lambda (for Little's result) and service rate mu.
func Solve(a Laplace, lambda, mu float64, opts *Options) (Result, error) {
	r, err := solve(a, lambda, mu, opts)
	recordSolve(r, err)
	return r, err
}

func solve(a Laplace, lambda, mu float64, opts *Options) (Result, error) {
	// !(x > 0) instead of x <= 0 so NaN inputs are rejected too.
	if !(lambda > 0) || !(mu > 0) || math.IsInf(lambda, 1) || math.IsInf(mu, 1) {
		return Result{}, haperr.Badf("gm1: rates must be positive and finite (λ=%v, μ=%v)", lambda, mu)
	}
	rho := lambda / mu
	if rho >= 1 {
		return Result{Rho: rho, Lambda: lambda, Mu: mu}, fmt.Errorf("gm1: λ=%v >= μ=%v: %w", lambda, mu, ErrUnstable)
	}
	o := Options{Tol: 1e-10, MaxIter: 10000}
	if opts != nil {
		if opts.Tol > 0 {
			o.Tol = opts.Tol
		}
		if opts.MaxIter > 0 {
			o.MaxIter = opts.MaxIter
		}
		o.Method = opts.Method
		o.WarmSigma = opts.WarmSigma
		o.Ctx = opts.Ctx
	}
	if o.Ctx != nil {
		if err := o.Ctx.Err(); err != nil {
			return Result{}, fmt.Errorf("gm1: %w", err)
		}
	}
	g := func(sig float64) float64 { return a(mu - mu*sig) }
	res := Result{Rho: rho, Lambda: lambda, Mu: mu, Method: o.Method}
	var sigma float64
	var err error
	switch o.Method {
	case MethodPaper:
		sigma, res.Iterations, err = quad.FixedPoint(o.Ctx, g, 0.5, 0.5, o.Tol, o.MaxIter)
		if err != nil {
			res.Sigma = sigma
			res.Residual = math.Abs(g(sigma) - sigma)
			if o.Ctx != nil && o.Ctx.Err() != nil {
				return res, fmt.Errorf("gm1: paper σ-algorithm: %w", o.Ctx.Err())
			}
			return res, fmt.Errorf("gm1: paper σ-algorithm (after %d iters, residual %.3g): %w",
				res.Iterations, res.Residual, haperr.ErrNotConverged)
		}
		// The averaging iteration can converge onto the trivial root σ = 1
		// (A*(0) = 1 for every transform). Near-critical queues have a real
		// σ close to — but numerically distinguishable from — 1, so only a
		// σ within the solve tolerance of the trivial root is rejected.
		if sigma >= 1 || 1-sigma <= 2*o.Tol {
			res.Sigma = sigma
			return res, fmt.Errorf("gm1: paper σ-algorithm found σ=%v with ρ=%v (use MethodBisect): %w",
				sigma, rho, ErrTrivialRoot)
		}
	default:
		sigma, res.Iterations, res.Bracket, err = bisectSigma(g, o.Tol, o.MaxIter, o.WarmSigma)
		if err != nil {
			return res, err
		}
	}
	if sigma < 0 {
		// Impossible for a valid transform; treat as a caller bug, not data.
		return res, haperr.Badf("gm1: σ solver produced %v (transform is not a Laplace transform)", sigma)
	}
	res.Sigma = sigma
	res.Residual = math.Abs(g(sigma) - sigma)
	res.Converged = true
	res.Delay = 1 / (mu * (1 - sigma))
	res.Wait = sigma / (mu * (1 - sigma))
	res.QueueLen = lambda * res.Delay
	return res, nil
}

// bisectSigma finds the non-trivial root of h(σ) = A*(μ−μσ) − σ in (0,1).
// h(1) = 0 always (A*(0) = 1); stability guarantees a root below 1, with
// h(0) = A*(μ) > 0, so h goes positive→negative→0; we bisect on a bracket
// found by scanning down from 1, stopping at the first negative probe (any
// point with h < 0 lies between the root and 1, so one is enough).
// It returns the root, the total transform evaluations spent (probes plus
// bisection steps) and the probe history as flattened (probe, h) pairs.
//
// A warm σ in (0, 1) replaces the descending probe scan with a geometric
// bracket expansion around the previous root: the continuous re-solve loop
// (ctrl's refit cycle, admission's workload bisection) moves σ a little per
// call, so the sign change is usually found within a few probes and the
// bisection runs over an interval far narrower than (0, 1). If the
// expansion fails to bracket — the warm value was stale — the cold scan
// runs as before, so a bad hint costs probes, never the answer.
func bisectSigma(g func(float64) float64, tol float64, maxIter int, warm float64) (float64, int, []float64, error) {
	h := func(s float64) float64 { return g(s) - s }
	var hi float64 = -1
	lo := 0.0
	probes := 0
	bracket := make([]float64, 0, 8)
	if warm > 0 && warm < 1 {
		// h is positive below the root and negative above it, so one
		// evaluation at the warm point picks the march direction; geometric
		// steps then walk toward the root, keeping the trailing probe as
		// the other bracket end. Both ends stay within a factor of the
		// actual drift, so the bisection interval is ~3·|σ − warm| instead
		// of (0, 1).
		probes++
		hw := h(warm)
		bracket = append(bracket, warm, hw)
		switch {
		case hw == 0:
			return warm, probes, bracket, nil
		case hw > 0:
			lo = warm
			for delta := math.Max(4*tol, 1e-4); delta < 1; delta *= 4 {
				p := warm + delta
				if p >= 1 {
					break
				}
				probes++
				hp := h(p)
				bracket = append(bracket, p, hp)
				if hp < 0 {
					hi = p
					break
				}
				lo = p
			}
			if hi < 0 {
				lo = 0 // stale hint: the cold scan below may bracket anywhere
			}
		default:
			hi = warm
			for delta := math.Max(4*tol, 1e-4); delta < 1; delta *= 4 {
				p := warm - delta
				if p <= 0 {
					break // lo stays 0; h(0) = A*(μ) > 0 always
				}
				probes++
				hp := h(p)
				bracket = append(bracket, p, hp)
				if hp > 0 {
					lo = p
					break
				}
				hi = p
			}
		}
	}
	for _, probe := range []float64{0.999, 0.99, 0.9, 0.7, 0.5, 0.3, 0.1, 0.01} {
		if hi >= 0 {
			break
		}
		probes++
		hp := h(probe)
		bracket = append(bracket, probe, hp)
		if hp < 0 {
			hi = probe
		}
	}
	if hi < 0 {
		// No strictly negative point found yet: very bursty near-critical
		// traffic puts σ within 1e-4 of 1, so walk a geometric ladder of
		// probes toward 1 until h turns negative.
		for eps := 1e-4; eps >= 1e-13; eps /= 10 {
			probe := 1 - eps
			probes++
			hp := h(probe)
			bracket = append(bracket, probe, hp)
			if hp < 0 {
				hi = probe
				break
			}
		}
		if hi < 0 {
			// σ is numerically indistinguishable from the trivial root 1:
			// the queue is critical at floating-point precision.
			return 0, probes, bracket, fmt.Errorf("gm1: σ indistinguishable from 1 (h >= 0 down to 1-1e-13): %w", haperr.ErrUnstable)
		}
	}
	root, steps, err := quad.Bisect(h, lo, hi, tol)
	if err != nil {
		return 0, probes + steps, bracket, fmt.Errorf("gm1: bisect: %w", err)
	}
	return root, probes + steps, bracket, nil
}

// MM1 returns the closed-form M/M/1 result (the Poisson baseline). λ = 0
// is allowed — an empty link with delay 1/μ — so admission regions can
// query the zero-call vector.
func MM1(lambda, mu float64) (Result, error) {
	if !(lambda >= 0) || !(mu > 0) || math.IsInf(lambda, 1) || math.IsInf(mu, 1) {
		return Result{}, haperr.Badf("gm1: MM1 rates must be non-negative and finite (λ=%v, μ=%v)", lambda, mu)
	}
	if lambda >= mu {
		return Result{Rho: lambda / mu, Lambda: lambda, Mu: mu}, fmt.Errorf("gm1: λ=%v >= μ=%v: %w", lambda, mu, ErrUnstable)
	}
	rho := lambda / mu
	return Result{
		Sigma:     rho, // PASTA: arrivals see time averages
		Delay:     1 / (mu - lambda),
		Wait:      rho / (mu - lambda),
		QueueLen:  rho / (1 - rho),
		Rho:       rho,
		Lambda:    lambda,
		Mu:        mu,
		Converged: true,
	}, nil
}
