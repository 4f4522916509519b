// Package solver implements the paper's three algorithmic solutions for
// the HAP/M/1 queue (Section 3.2):
//
//   - Solution 0 — brute-force iterative steady state of the joint
//     modulator ⊗ queue-length chain. Exact up to truncation, slow; the
//     paper ran it for two weeks on a SUN-4/280. It is the only solution
//     that preserves interarrival correlation.
//   - Solution 1 — steady state of the modulator only; the interarrival
//     time becomes an arrival-rate-weighted mixture of exponentials whose
//     Laplace transform is exact, and the queue is solved as G/M/1 via the
//     σ fixed point.
//   - Solution 2 — the same G/M/1 reduction with closed-form M/M/∞
//     conditioning (package core's Interarrival), no chain solve at all.
//
// All three return the shared Result type so experiments can compare them
// directly.
package solver

import (
	"context"
	"fmt"
	"math"
	"time"

	"hap/internal/core"
	"hap/internal/gm1"
	"hap/internal/haperr"
	"hap/internal/mmpp"
)

// Result reports a solved HAP/M/1 queue.
type Result struct {
	Method     string        // "solution0", "solution1", "solution2", ...
	MeanRate   float64       // λ̄
	Rho        float64       // λ̄/μ''
	Sigma      float64       // P(arrival finds server busy)
	Delay      float64       // mean message sojourn time T
	QueueLen   float64       // mean number in system N̄
	Iterations int           // solver iterations
	Residual   float64       // final convergence metric of the inner iteration
	Converged  bool          // inner iteration met its tolerance
	Degraded   bool          // requested method exhausted its budget; a fallback produced this result
	States     int           // chain states solved (0 for Solution 2)
	Elapsed    time.Duration // wall-clock cost
}

func (r Result) String() string {
	flag := ""
	if r.Degraded {
		flag = " DEGRADED"
	}
	return fmt.Sprintf("%s{λ̄=%.4g ρ=%.3g σ=%.4g T=%.4g N̄=%.4g states=%d iters=%d residual=%.2g %v%s}",
		r.Method, r.MeanRate, r.Rho, r.Sigma, r.Delay, r.QueueLen, r.States, r.Iterations, r.Residual,
		r.Elapsed.Round(time.Millisecond), flag)
}

// Diag returns the solve diagnostics in the shared form.
func (r Result) Diag() haperr.Diag {
	d := haperr.Diag{Iterations: r.Iterations, Residual: r.Residual, Converged: r.Converged}
	if r.Degraded {
		d.Fallback = r.Method
	}
	return d
}

// Options tunes the solvers. The zero value picks sensible defaults.
type Options struct {
	// MaxUsers / MaxApps truncate the modulator lattice (defaults from
	// mmpp.DefaultBounds); on an asymmetric model MaxApps caps every
	// application type, and its default sizes each type by its own load.
	MaxUsers, MaxApps int
	// MaxQueue truncates the queue-length dimension of Solution 0
	// (default 10·μ''/(μ''−λ̄), floored at 200).
	MaxQueue int
	// Tol is the steady-state convergence tolerance (default 1e-9).
	Tol float64
	// MaxIter is the sweep budget (default 20000).
	MaxIter int
	// WarmSigma, when inside (0, 1), seeds the G/M/1 σ bisection of
	// Solutions 1 and 2 with a previous solve's σ — the continuous
	// re-solve loop (ctrl's refit cycle, admission's bisections) moves σ
	// a little per call, so the warm bracket cuts the transform
	// evaluations without affecting the root. See gm1.Options.WarmSigma.
	WarmSigma float64
	// WarmStart seeds Solution 0 with the modulator law × geometric queue
	// product guess (default true via warmStart()).
	DisableWarmStart bool
	// DisableFallback stops Solution 0 from degrading to Solution 2 when
	// its sweep budget runs out; the not-converged error is returned with
	// the partial iterate's statistics instead.
	DisableFallback bool
	// Ctx, when non-nil, bounds the solve: it is polled inside the chain
	// solves (sweeps and GTH eliminations), the σ iterations and the
	// matrix-geometric R iteration, and a cancelled context aborts with
	// the context error. Nil means context.Background().
	Ctx context.Context
}

// ctx returns the configured context or Background.
func (o *Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o *Options) bounds(m *core.Model) (int, int) {
	u, a := o.MaxUsers, o.MaxApps
	if u <= 0 || a <= 0 {
		du, da := mmpp.DefaultBounds(m, 8)
		if u <= 0 {
			u = du
		}
		if a <= 0 {
			a = da
		}
	}
	return u, a
}

func (o *Options) tol() float64 {
	if o.Tol > 0 {
		return o.Tol
	}
	return 1e-9
}

func (o *Options) maxIter() int {
	if o.MaxIter > 0 {
		return o.MaxIter
	}
	return 20000
}

func (o *Options) maxQueue(meanRate, muMsg float64) int {
	if o.MaxQueue > 0 {
		return o.MaxQueue
	}
	rho := meanRate / muMsg
	z := int(10 / (1 - rho))
	if z < 200 {
		z = 200
	}
	return z
}

// Solution2 solves HAP/M/1 with the closed-form interarrival law: the
// fastest solution ("5 to 7 minutes" in the paper, microseconds here).
func Solution2(m *core.Model, opts *Options) (Result, error) {
	start := time.Now()
	r, err := solution2(m, opts)
	recordSolve("solution2", start, r, err)
	return r, err
}

// solution2 is the uninstrumented core, also used as the Solution 0
// fallback so internal reuse does not inflate the solve counters.
func solution2(m *core.Model, opts *Options) (Result, error) {
	start := time.Now()
	if opts == nil {
		opts = &Options{}
	}
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	muMsg, ok := m.UniformServiceRate()
	if !ok {
		return Result{}, fmt.Errorf("solver: Solution 2 requires a uniform message service rate")
	}
	ia := m.Interarrival()
	return solveSigma("solution2", ia.Laplace, ia.MeanRate(), muMsg, 0, opts, start)
}

// Solution2Bounded is Solution 2 with the user and application populations
// capped (Figure 20's admission-control variant): the mixture over
// truncated-Poisson populations has an exact Laplace transform.
func Solution2Bounded(m *core.Model, maxUsers, maxApps int, opts *Options) (Result, error) {
	start := time.Now()
	r, err := solution2Bounded(m, maxUsers, maxApps, opts)
	recordSolve("solution2-bounded", start, r, err)
	return r, err
}

func solution2Bounded(m *core.Model, maxUsers, maxApps int, opts *Options) (Result, error) {
	start := time.Now()
	if opts == nil {
		opts = &Options{}
	}
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	muMsg, ok := m.UniformServiceRate()
	if !ok {
		return Result{}, fmt.Errorf("solver: bounded Solution 2 requires a uniform message service rate")
	}
	mix, err := m.BoundedMixture(maxUsers, maxApps)
	if err != nil {
		return Result{}, err
	}
	return solveSigma("solution2-bounded", mix.Laplace, mix.MeanRate, muMsg, len(mix.Weights), opts, start)
}

// Solution1 solves HAP/M/1 by computing the stationary law of the
// truncated modulator (see modulator) and feeding the exact mixture
// Laplace transform to the σ fixed point.
func Solution1(m *core.Model, opts *Options) (Result, error) {
	start := time.Now()
	r, err := solution1(m, opts)
	recordSolve("solution1", start, r, err)
	return r, err
}

func solution1(m *core.Model, opts *Options) (Result, error) {
	start := time.Now()
	if opts == nil {
		opts = &Options{}
	}
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	muMsg, ok := m.UniformServiceRate()
	if !ok {
		return Result{}, fmt.Errorf("solver: Solution 1 requires a uniform message service rate")
	}
	proc, err := modulator(m, opts)
	if err != nil {
		return Result{}, err
	}
	mix, err := proc.InterarrivalMixture(opts.ctx())
	if err != nil {
		return Result{}, fmt.Errorf("solver: solution 1 modulator: %w", err)
	}
	return solveSigma("solution1", mix.Laplace, mix.MeanRate, muMsg, proc.Chain.N(), opts, start)
}

// solveSigma is the G/M/1 step Solutions 1, 2 and 2-bounded share: the σ
// fixed point of interarrival transform a at mean rate lam, reported as
// method's Result over states chain states.
func solveSigma(method string, a gm1.Laplace, lam, muMsg float64, states int, opts *Options, start time.Time) (Result, error) {
	res, err := gm1.Solve(a, lam, muMsg, &gm1.Options{Tol: opts.tol(), WarmSigma: opts.WarmSigma, Ctx: opts.Ctx})
	if err != nil {
		return Result{}, fmt.Errorf("solver: %s: %w", method, err)
	}
	return Result{
		Method:     method,
		MeanRate:   lam,
		Rho:        res.Rho,
		Sigma:      res.Sigma,
		Delay:      res.Delay,
		QueueLen:   res.QueueLen,
		Iterations: res.Iterations,
		Residual:   res.Residual,
		Converged:  res.Converged,
		States:     states,
		Elapsed:    time.Since(start),
	}, nil
}

// modulator builds the truncated modulator that Solutions 0, 1 and 0-MG
// solve: the (x, y) chain of Figure 7 for a symmetric model, the per-type
// lattice of Figure 6 otherwise (keep the bounds small there).
func modulator(m *core.Model, opts *Options) (*mmpp.MMPP, error) {
	maxU, maxA := opts.bounds(m)
	if sym, _, _, _, _ := m.Symmetric(); sym {
		proc, _, err := mmpp.FromHAPSimplified(m, maxU, maxA)
		return proc, err
	}
	per := make([]int, len(m.Apps))
	for i := range per {
		per[i] = perTypeBound(m, i, opts.MaxApps)
	}
	proc, _, err := mmpp.FromHAP(m, maxU, per)
	return proc, err
}

// perTypeBound sizes the truncation of application type i around its
// stationary marginal (mean ν·aᵢ, variance ≤ mean·(1+aᵢ·ν)), not the
// worst-case user count — the latter cubes the phase count for nothing.
// A positive cap (from Options.MaxApps) overrides the heuristic.
func perTypeBound(m *core.Model, i, capBound int) int {
	if capBound > 0 {
		return capBound
	}
	mean := m.Nu() * m.AppLoad(i)
	std := math.Sqrt(mean * (1 + m.Nu()*m.AppLoad(i)))
	b := int(mean + 8*math.Max(std, 1))
	if b < 6 {
		b = 6
	}
	return b
}

// Poisson returns the M/M/1 baseline at the model's mean rate — the
// comparison the paper draws in every delay figure.
func Poisson(m *core.Model) (Result, error) {
	start := time.Now()
	r, err := poisson(m)
	recordSolve("poisson", start, r, err)
	return r, err
}

func poisson(m *core.Model) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	muMsg, ok := m.UniformServiceRate()
	if !ok {
		return Result{}, fmt.Errorf("solver: Poisson baseline requires a uniform service rate")
	}
	res, err := gm1.MM1(m.MeanRate(), muMsg)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Method:    "poisson",
		MeanRate:  res.Lambda,
		Rho:       res.Rho,
		Sigma:     res.Sigma,
		Delay:     res.Delay,
		QueueLen:  res.QueueLen,
		Converged: true,
	}, nil
}
