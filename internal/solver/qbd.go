package solver

import (
	"context"
	"fmt"
	"math"
	"time"

	"hap/internal/core"
	"hap/internal/haperr"
	"hap/internal/linalg"
	"hap/internal/markov"
	"hap/internal/mmpp"
)

// This file implements the matrix-geometric solution of HAP/M/1. The joint
// chain (modulator, z) is a quasi-birth-death process: within a queue
// level z >= 1 the generator repeats the same three blocks
//
//	A0 = diag(rates)        (arrival, z → z+1)
//	A1 = Q − diag(rates) − μI  (modulator moves)
//	A2 = μI                 (service, z → z−1)
//
// so the stationary law is matrix-geometric, π_z = π₁·R^{z−1}, with R the
// minimal solution of A0 + R·A1 + R²·A2 = 0 (Neuts, whom the paper cites).
// R is computed by Latouche–Ramaswami logarithmic reduction on the
// uniformised blocks, with the naive functional iteration available as an
// ablation/cross-check. Unlike the truncated Gauss–Seidel Solution 0, the
// queue dimension is exact, which matters because HAP's queue tail is
// heavy (locally unstable high-population states).
//
// Two identities of this queue replace general QBD algebra. First, log
// reduction yields G, the minimal solution of A2 + A1·G + A0·G² = 0, and
// in general R = A0·(−A1 − A0·G)⁻¹. But G = (−A1 − A0·G)⁻¹·A2 too, and
// A2 = μI is invertible, so (−A1 − A0·G)⁻¹ = G/μ and
//
//	R = diag(rates)·G/μ,
//
// a row scaling. Second, level 0 is entered from above through A2 and
// left upwards through A0 exactly as the repeating levels are, so the
// geometric form reaches down to it: π_z = π₀·R^z. Level 0's balance
// π₀·B00 + π₁·A2 = 0 (B00 = Q − diag(rates)) then reads
//
//	π₀·(B00 + μR) = 0,   π₀·(I − R)⁻¹·1 = 1,
//
// the stationary law of the p-state chain censored on level 0, solved
// directly by markov's GTH and scaled by the level sums.

// QBD is the matrix-geometric solution of a modulated M/M/1-type queue.
type QBD struct {
	P        int // number of modulator phases
	Rates    []float64
	Mu       float64
	R        *linalg.Dense // rate matrix
	Pi0      []float64     // stationary vector of level 0
	Pi1      []float64     // stationary vector of level 1
	SumPi    []float64     // π₁(I−R)⁻¹ = Σ_{z≥1} π_z
	LRIter   int
	Residual float64 // final R-iteration convergence metric

	imr *linalg.LU // factorised I − R
}

// RMethod selects how the rate matrix R is computed.
type RMethod int

// Available R solvers.
const (
	// RMethodLogReduction is Latouche–Ramaswami logarithmic reduction
	// (quadratic convergence, the default).
	RMethodLogReduction RMethod = iota
	// RMethodFunctional is the naive iteration R ← Ā0 + RĀ1 + R²Ā2
	// (linear convergence; ablation baseline).
	RMethodFunctional
)

// SolveQBD computes the matrix-geometric solution for an arbitrary finite
// modulator. The modulator chain and per-state rates come from proc; mu is
// the uniform service rate. ctx is polled by the modulator's and the
// boundary's GTH solves and inside the R iteration; a cancelled solve
// returns the context error. An R iteration that ends with its residual
// at or above tol (default 1e-12) still returns the solution built on it,
// with an error wrapping haperr.ErrNotConverged.
func SolveQBD(ctx context.Context, proc *mmpp.MMPP, mu float64, method RMethod, tol float64) (*QBD, error) {
	if tol <= 0 {
		tol = 1e-12
	}
	p := proc.Chain.N()
	rates := proc.Rates
	// Solve the modulator law under ctx; MeanRate reads the cached law.
	if _, err := proc.StationaryCtx(ctx); err != nil {
		return nil, fmt.Errorf("solver: qbd: %w", err)
	}
	meanRate, err := proc.MeanRate()
	if err != nil {
		return nil, err
	}
	if meanRate >= mu {
		return nil, fmt.Errorf("solver: qbd λ̄=%v >= μ=%v: %w", meanRate, mu, haperr.ErrUnstable)
	}

	// Dense modulator generator.
	q := linalg.NewDense(p, p)
	for i := 0; i < p; i++ {
		var out float64
		for _, tr := range proc.Chain.Transitions(i) {
			q.Set(i, tr.To, q.At(i, tr.To)+tr.Rate)
			out += tr.Rate
		}
		q.Set(i, i, q.At(i, i)-out)
	}

	// Uniformisation constant over the repeating levels.
	c := 0.0
	for i := 0; i < p; i++ {
		tot := -q.At(i, i) + rates[i] + mu
		if tot > c {
			c = tot
		}
	}
	c *= 1.0000001

	// Ā1 = I + A1/c; Ā0 = diag(rates)/c and Ā2 = (μ/c)·I stay implicit.
	a1 := q.Clone()
	a1.Scale(1 / c)
	for i := 0; i < p; i++ {
		a1.A[i*p+i] += 1 - (rates[i]+mu)/c
	}

	var r *linalg.Dense
	var iters int
	var residual float64
	switch method {
	case RMethodFunctional:
		r, iters, residual, err = rFunctional(ctx, a1, rates, mu, c, tol)
	default:
		r, iters, residual, err = rLogReduction(ctx, a1, rates, mu, c, tol)
	}
	if r == nil {
		return nil, err
	}

	qbd := &QBD{P: p, Rates: rates, Mu: mu, R: r, LRIter: iters, Residual: residual}
	if err := qbd.solveBoundary(ctx, q); err != nil {
		return nil, err
	}
	return qbd, err
}

// rLogReduction runs Latouche–Ramaswami logarithmic reduction for G and
// returns R = diag(rates)·G/μ (see the top of this file). The third
// return is the final stochasticity defect of G (the convergence metric).
// The iteration stops when that defect falls below tol; a run that ends
// above it (its step budget spent, or T exactly zero so that G cannot
// move) returns R with an error wrapping haperr.ErrNotConverged.
func rLogReduction(ctx context.Context, a1 *linalg.Dense, rates []float64, mu, c, tol float64) (*linalg.Dense, int, float64, error) {
	p := a1.R
	eye := linalg.Eye(p)
	tmp := linalg.NewDense(p, p)
	iters := 0
	maxDef := math.Inf(1)
	// Every p×p product, factorisation and inverse below takes seconds at
	// a few thousand phases, so ctx is polled before each one.
	cancelled := func() error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("solver: qbd log reduction: %w", err)
		}
		return nil
	}

	// H = (I − Ā1)⁻¹; U = H·Ā0 (up) scales H's columns by rates/c and
	// L = H·Ā2 (down) is (μ/c)·H.
	if err := cancelled(); err != nil {
		return nil, iters, maxDef, err
	}
	linalg.Sub(tmp, eye, a1)
	f, err := linalg.Factor(tmp)
	if err != nil {
		return nil, 0, math.Inf(1), fmt.Errorf("solver: qbd I−A1 singular: %w", err)
	}
	if err := cancelled(); err != nil {
		return nil, iters, maxDef, err
	}
	l := f.Inverse()
	u := l.Clone()
	for i := 0; i < p; i++ {
		row := u.Row(i)
		for j := range row {
			row[j] *= rates[j] / c
		}
	}
	l.Scale(mu / c)

	g := l.Clone()
	t := u.Clone()
	m1 := linalg.NewDense(p, p)
	m2 := linalg.NewDense(p, p)
	for it := 0; it < 64; it++ {
		if err := cancelled(); err != nil {
			return nil, iters, maxDef, err
		}
		iters = it + 1
		// D = U·L + L·U.
		linalg.Mul(m1, u, l)
		if err := cancelled(); err != nil {
			return nil, iters, maxDef, err
		}
		linalg.MulAdd(m1, l, u)
		linalg.Sub(m1, eye, m1)
		if err := cancelled(); err != nil {
			return nil, iters, maxDef, err
		}
		fD, err := linalg.Factor(m1)
		if err != nil {
			return nil, iters, maxDef, fmt.Errorf("solver: qbd I−D singular: %w", err)
		}
		// L' = (I−D)⁻¹L²; G += T·L'.
		if err := cancelled(); err != nil {
			return nil, iters, maxDef, err
		}
		linalg.Mul(m2, l, l)
		if err := cancelled(); err != nil {
			return nil, iters, maxDef, err
		}
		l2 := fD.Solve(m2)
		if err := cancelled(); err != nil {
			return nil, iters, maxDef, err
		}
		linalg.Mul(m2, t, l2)
		linalg.Add(g, g, m2)
		// Converged when G is (numerically) stochastic; U' and T only
		// serve the next iteration, so the last one skips them.
		maxDef = 0.0
		for _, s := range g.RowSums() {
			if d := math.Abs(1 - s); d > maxDef {
				maxDef = d
			}
		}
		if maxDef < tol {
			break
		}
		// U' = (I−D)⁻¹U²; T = T·U'.
		if err := cancelled(); err != nil {
			return nil, iters, maxDef, err
		}
		linalg.Mul(m2, u, u)
		if err := cancelled(); err != nil {
			return nil, iters, maxDef, err
		}
		u2 := fD.Solve(m2)
		if err := cancelled(); err != nil {
			return nil, iters, maxDef, err
		}
		linalg.Mul(m2, t, u2)
		t.Copy(m2)
		u, l = u2, l2
		// A T that is exactly zero adds nothing to G from here on.
		if t.MaxAbs() == 0 {
			break
		}
	}
	for i := 0; i < p; i++ {
		row := g.Row(i)
		for j := range row {
			row[j] *= rates[i] / mu
		}
	}
	if !(maxDef < tol) {
		return g, iters, maxDef, fmt.Errorf("solver: qbd log reduction (after %d steps, defect %.3g): %w",
			iters, maxDef, haperr.ErrNotConverged)
	}
	return g, iters, maxDef, nil
}

// rFunctional runs the naive fixed-point iteration R ← Ā0 + R·Ā1 + R²·Ā2
// for R, with Ā0 = diag(rates)/c and Ā2 = (μ/c)·I, polling ctx every 64
// iterations.
func rFunctional(ctx context.Context, a1 *linalg.Dense, rates []float64, mu, c, tol float64) (*linalg.Dense, int, float64, error) {
	p := a1.R
	r := linalg.NewDense(p, p)
	next := linalg.NewDense(p, p)
	r2 := linalg.NewDense(p, p)
	d := math.Inf(1)
	for it := 1; it <= 200000; it++ {
		if it&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, it, d, fmt.Errorf("solver: qbd functional iteration: %w", err)
			}
		}
		linalg.Mul(next, r, a1)
		linalg.Mul(r2, r, r)
		for i, v := range r2.A {
			next.A[i] += mu / c * v
		}
		for i := 0; i < p; i++ {
			next.A[i*p+i] += rates[i] / c
		}
		d = 0
		for i, v := range next.A {
			d = math.Max(d, math.Abs(v-r.A[i]))
		}
		r, next = next, r
		if d < tol {
			return r, it, d, nil
		}
	}
	return r, 200000, d, fmt.Errorf("solver: qbd functional iteration: %w", haperr.ErrNotConverged)
}

// solveBoundary finds π₀ as the stationary law of the level-0 censored
// generator B00 + μR, scales it so that π₀(I−R)⁻¹·1 = 1, and sets
// π₁ = π₀R and Σ_{z≥1} π_z = π₁(I−R)⁻¹. q is the modulator generator.
func (qb *QBD) solveBoundary(ctx context.Context, q *linalg.Dense) error {
	p := qb.P
	// Off-diagonal rates of B00 + μR: Q's plus rates(i)·G(i, j) = μ·R(i, j).
	// R is non-negative up to the round-off of the G iteration, which is
	// clipped.
	cens := make([]float64, p*p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j {
				cens[i*p+j] = q.At(i, j) + max(0, qb.Mu*qb.R.At(i, j))
			}
		}
	}
	pi0, err := markov.GTHDense(ctx, cens, p)
	if err != nil {
		return fmt.Errorf("solver: qbd boundary: %w", err)
	}

	imr := linalg.NewDense(p, p)
	linalg.Sub(imr, linalg.Eye(p), qb.R)
	fI, err := linalg.Factor(imr)
	if err != nil {
		return fmt.Errorf("solver: qbd I−R singular: %w", err)
	}
	ones := make([]float64, p)
	for i := range ones {
		ones[i] = 1
	}
	norm := linalg.Dot(pi0, fI.SolveVec(ones)) // π₀(I−R)⁻¹·1 before scaling
	for i := range pi0 {
		pi0[i] /= norm
	}
	qb.Pi0 = pi0
	qb.Pi1 = linalg.VecMat(pi0, qb.R)
	qb.SumPi = fI.SolveVecLeft(qb.Pi1)
	qb.imr = fI
	return nil
}

// MeanRate returns λ̄ = Σ_z π_z·rates.
func (qb *QBD) MeanRate() float64 {
	var s float64
	for i := range qb.Rates {
		s += (qb.Pi0[i] + qb.SumPi[i]) * qb.Rates[i]
	}
	return s
}

// Sigma returns the probability an arrival finds the server busy.
func (qb *QBD) Sigma() float64 {
	var busy float64
	for i := range qb.Rates {
		busy += qb.SumPi[i] * qb.Rates[i]
	}
	return busy / qb.MeanRate()
}

// MeanQueue returns N̄ = π₁(I−R)⁻²·1 = Σ_{z≥1} π_z·(I−R)⁻¹·1.
func (qb *QBD) MeanQueue() float64 {
	var s float64
	for _, v := range qb.imr.SolveVecLeft(qb.SumPi) {
		s += v
	}
	return s
}

// QueueDist returns the marginal queue-length probabilities P(z) for
// z = 0..maxZ.
func (qb *QBD) QueueDist(maxZ int) []float64 {
	out := make([]float64, maxZ+1)
	for _, v := range qb.Pi0 {
		out[0] += v
	}
	cur := append([]float64(nil), qb.Pi1...)
	for z := 1; z <= maxZ; z++ {
		var s float64
		for _, v := range cur {
			s += v
		}
		out[z] = s
		if z < maxZ {
			cur = linalg.VecMat(cur, qb.R)
		}
	}
	return out
}

// Solution0MG solves HAP/M/1 by the matrix-geometric method on the
// truncated modulator (see modulator): the modern equivalent of the
// paper's Solution 0 with the queue dimension handled exactly. Bounds
// truncate only the modulator.
func Solution0MG(m *core.Model, opts *Options) (Result, error) {
	start := time.Now()
	if opts == nil {
		opts = &Options{}
	}
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	muMsg, ok := m.UniformServiceRate()
	if !ok {
		return Result{}, fmt.Errorf("solver: matrix-geometric solver requires a uniform message service rate")
	}
	proc, err := modulator(m, opts)
	if err != nil {
		return Result{}, err
	}
	return solveQBDResult(proc, muMsg, opts, start, "solution0-mg")
}

// SolveMMPPQueue solves an arbitrary MMPP/M/1 queue by the same machinery,
// used for the 2-state comparator and ON-OFF models.
func SolveMMPPQueue(proc *mmpp.MMPP, muMsg float64, opts *Options) (Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	return solveQBDResult(proc, muMsg, opts, time.Now(), "mmpp-qbd")
}

func solveQBDResult(proc *mmpp.MMPP, muMsg float64, opts *Options, start time.Time, method string) (Result, error) {
	r, err := solveQBD(proc, muMsg, opts, start, method)
	recordSolve(method, start, r, err)
	return r, err
}

func solveQBD(proc *mmpp.MMPP, muMsg float64, opts *Options, start time.Time, method string) (Result, error) {
	qb, err := SolveQBD(opts.ctx(), proc, muMsg, RMethodLogReduction, opts.Tol)
	if qb == nil {
		return Result{}, err
	}
	lam := qb.MeanRate()
	nbar := qb.MeanQueue()
	return Result{
		Method:     method,
		MeanRate:   lam,
		Rho:        lam / muMsg,
		Sigma:      qb.Sigma(),
		Delay:      nbar / lam,
		QueueLen:   nbar,
		Iterations: qb.LRIter,
		Residual:   qb.Residual,
		Converged:  err == nil,
		States:     qb.P,
		Elapsed:    time.Since(start),
	}, err
}
