package solver

import (
	"errors"
	"fmt"
	"time"

	"hap/internal/core"
	"hap/internal/markov"
	"hap/internal/mmpp"
)

// Solution0 solves the joint modulator ⊗ queue chain of Section 3.2.1 by
// Gauss–Seidel sweeps of the balance equations — the paper's brute-force
// Equation 1 iteration. The modulator is the truncated chain Solutions 1
// and 0-MG solve (see modulator): the (x, y) chain of Figure 7 for a
// symmetric model, so the full state is (x, y, z), and the per-type
// lattice of Figure 6 otherwise, whose joint chain grows fast with l.
//
// The queue dimension needs a much larger bound than the populations (the
// paper makes the same observation); the tail is heavy because high-y
// states are locally unstable. Unless disabled, the iteration warm-starts
// from the product guess π_modulator·Geometric(σ₁)(z) with σ₁ from
// Solution 1 on the same modulator, which cuts the sweep count by orders
// of magnitude.
func Solution0(m *core.Model, opts *Options) (Result, error) {
	start := time.Now()
	r, err := solution0(m, opts)
	recordSolve("solution0", start, r, err)
	return r, err
}

func solution0(m *core.Model, opts *Options) (Result, error) {
	start := time.Now()
	if opts == nil {
		opts = &Options{}
	}
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	muMsg, ok := m.UniformServiceRate()
	if !ok {
		return Result{}, fmt.Errorf("solver: Solution 0 requires a uniform message service rate")
	}
	proc, err := modulator(m, opts)
	if err != nil {
		return Result{}, err
	}
	// State p·nz + z pairs modulator state p with queue length z; each row
	// lists the modulator's moves, then the arrival (z+1) and the service
	// (z−1) that couple the modulator to z.
	nz := opts.maxQueue(m.MeanRate(), muMsg) + 1
	chain := markov.NewChain(proc.Chain.N() * nz)
	for s := 0; s < chain.N(); s++ {
		// The build alone takes seconds on multi-million-state chains, so
		// poll the context here too, not only inside the sweeps.
		if s&0xFFFF == 0 {
			if err := opts.ctx().Err(); err != nil {
				return Result{}, fmt.Errorf("solver: solution 0: %w", err)
			}
		}
		p, z := s/nz, s%nz
		for _, tr := range proc.Chain.Transitions(p) {
			chain.Add(s, tr.To*nz+z, tr.Rate)
		}
		if z+1 < nz {
			chain.Add(s, s+1, proc.Rates[p])
		}
		if z > 0 {
			chain.Add(s, s-1, muMsg)
		}
	}

	sopts := &markov.SteadyOptions{Tol: opts.tol(), MaxIter: opts.maxIter(), Ctx: opts.Ctx}
	if !opts.DisableWarmStart {
		if pi0, err := warmStart(proc, nz, muMsg, opts); err == nil {
			sopts.Pi0 = pi0
		}
	}
	pi, stats, solveErr := chain.GaussSeidel(sopts)
	if solveErr != nil {
		if ctxErr := opts.ctx().Err(); ctxErr != nil {
			// A cancelled solve did not "fail to converge"; report the
			// cancellation and do not fall back.
			return Result{}, fmt.Errorf("solver: solution 0: %w", solveErr)
		}
		if errors.Is(solveErr, markov.ErrNotConverged) && !opts.DisableFallback {
			// Budget exhausted: degrade to the closed-form Solution 2 and
			// flag it, so long sweeps near ρ→1 yield a usable answer
			// instead of an error (the paper's own two-week runs were
			// budget bound too). The fallback keeps its own diagnostics.
			if fb, fbErr := solution2(m, opts); fbErr == nil {
				fb.Method = "solution0-fallback-solution2"
				fb.Degraded = true
				fb.Elapsed = time.Since(start)
				return fb, nil
			}
		}
		// Fallback disabled or impossible: report the partial iterate with
		// the error so callers can see how far the sweep got.
		solveErr = fmt.Errorf("solver: solution 0: %w", solveErr)
	}

	// λ̄ = Σ π·R, N̄ = Σ π·z, T = N̄/λ̄ (Little), and σ is the probability
	// an arrival finds the server busy: arrivals occur at rate R(state), so
	// σ = Σ_{z>=1} π·R / λ̄.
	var meanRate, meanN, busyWeighted float64
	for s, p := range pi {
		if p == 0 {
			continue
		}
		r, z := proc.Rates[s/nz], s%nz
		meanRate += p * r
		meanN += p * float64(z)
		if z >= 1 {
			busyWeighted += p * r
		}
	}
	res := Result{
		Method:     "solution0",
		MeanRate:   meanRate,
		Rho:        meanRate / muMsg,
		Sigma:      busyWeighted / meanRate,
		Delay:      meanN / meanRate,
		QueueLen:   meanN,
		Iterations: stats.Iterations,
		Residual:   stats.Residual,
		Converged:  stats.Converged,
		States:     chain.N(),
		Elapsed:    time.Since(start),
	}
	return res, solveErr
}

// warmStart builds the product initial guess π(p)·(1−σ)σ^z over nz queue
// lengths, with σ from Solution 1's σ step on the same modulator.
func warmStart(proc *mmpp.MMPP, nz int, muMsg float64, opts *Options) ([]float64, error) {
	piMod, err := proc.StationaryCtx(opts.ctx())
	if err != nil {
		return nil, err
	}
	mix, err := proc.InterarrivalMixture(opts.ctx())
	if err != nil {
		return nil, err
	}
	s1, err := solveSigma("solution1", mix.Laplace, mix.MeanRate, muMsg, 0, &Options{Tol: 1e-8, Ctx: opts.Ctx}, time.Now())
	if err != nil {
		return nil, err
	}
	sig := s1.Sigma
	if sig <= 0 || sig >= 1 {
		sig = s1.Rho
	}
	geo := make([]float64, nz)
	g := 1 - sig
	for z := range geo {
		geo[z] = g
		g *= sig
	}
	pi0 := make([]float64, len(piMod)*nz)
	for p, q := range piMod {
		if q == 0 {
			continue
		}
		for z, v := range geo {
			pi0[p*nz+z] = q * v
		}
	}
	return pi0, nil
}
