package fit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"hap/internal/haperr"
	"hap/internal/mmpp"
	"hap/internal/par"
)

// EMOptions tunes the Baum-Welch MMPP2 fitter. The zero value is usable.
type EMOptions struct {
	// MaxIter bounds the EM iterations (0 defaults to 200). Exhausting it
	// returns the best iterate alongside ErrNotConverged.
	MaxIter int
	// Tol is the convergence threshold on the per-sample log-likelihood
	// improvement between iterations (0 defaults to 1e-8).
	Tol float64
	// MaxSamples caps the interarrivals fed to EM; longer traces are
	// truncated to a prefix (EM is O(iterations·samples), and 2·10⁵ samples
	// pin four parameters far beyond the 5% tolerances used here). 0
	// defaults to 200000; negative disables the cap.
	MaxSamples int
	// Warm, when non-nil, seeds EM from a previous fit instead of the
	// deterministic default start: rates and transition matrix are taken
	// from the fit, the initial distribution from P's stationary vector.
	// A warm start near the optimum converges in a handful of iterations —
	// the contract Refitter builds on.
	Warm *MMPP2Fit
	// Starts > 1 runs a multi-start EM: start 0 uses the deterministic (or
	// Warm) initial point, start i > 0 perturbs it with a rand stream
	// seeded dist.SubSeed(Seed, i), and the best final log-likelihood wins
	// (ties break to the lowest start index). Results depend only on
	// (Starts, Seed), never on Workers — the par determinism contract.
	Starts int
	// Seed derives the perturbed initial points for Starts > 1.
	Seed int64
	// Workers bounds the goroutines running multi-start EM (<= 0 selects
	// GOMAXPROCS, 1 runs inline).
	Workers int
	// Scratch, when non-nil, supplies the working arrays; successive fits
	// through the same Scratch are allocation-free once its buffers have
	// grown to the largest trace seen. Nil borrows from an internal pool.
	Scratch *Scratch
}

func (o EMOptions) maxIter() int {
	if o.MaxIter <= 0 {
		return 200
	}
	return o.MaxIter
}

func (o EMOptions) tol() float64 {
	if o.Tol <= 0 {
		return 1e-8
	}
	return o.Tol
}

func (o EMOptions) maxSamples() int {
	if o.MaxSamples == 0 {
		return 200000
	}
	return o.MaxSamples
}

func (o EMOptions) starts() int {
	if o.Starts <= 1 {
		return 1
	}
	return o.Starts
}

// MMPP2Fit is a fitted 2-state MMPP.
type MMPP2Fit struct {
	Model mmpp.MMPP2
	// Rates are the hidden-state arrival rates (Rates[0] <= Rates[1]);
	// P is the per-arrival state transition matrix the HMM estimated.
	Rates [2]float64
	P     [2][2]float64
	// LogLik is the final HMM log-likelihood of the interarrival sequence.
	LogLik float64
	// Samples is the number of interarrivals EM actually used (after any
	// MaxSamples truncation).
	Samples int
	Diag    haperr.Diag
}

// FitMMPP2EM fits a 2-state MMPP to arrival timestamps by Baum-Welch EM
// on the hidden-Markov chain embedded at arrival epochs: state k emits an
// exponential interarrival with rate r_k, and states switch between
// arrivals with matrix P. This is the Markov-renewal approximation of the
// MMPP (exact when switching is slow relative to arrivals — the regime
// where a 2-state MMPP is worth fitting at all); the continuous-time
// generator is recovered as Q_kj = P_kj·r_k, the rate of arrival epochs
// in state k times the per-epoch switch probability.
//
// The E step runs in the scaled-emission domain (see emCore), so traces
// of any length stay in float range with one exponential per sample.
// Initialisation is deterministic (r = {½, 2}/mean, sticky P) unless
// opt.Warm supplies a previous fit, making fits reproducible; Starts > 1
// adds seed-perturbed restarts that are bit-identical at any Workers
// count. The context is polled once per iteration; cancellation returns
// the context's error wrapped, an exhausted budget returns the best
// iterate alongside ErrNotConverged, and either way Diag carries
// iterations, the final log-likelihood improvement, and the converged
// flag — the generate→fit loop's answer to "did EM actually settle or
// just stop".
func FitMMPP2EM(ctx context.Context, times []float64, opt EMOptions) (MMPP2Fit, error) {
	start := time.Now()
	fit, err := fitMMPP2EM(ctx, times, opt)
	if err != nil {
		recordFitErr("mmpp2", start, err)
		obsEMIterations.Add(int64(fit.Diag.Iterations))
	} else {
		recordFit("mmpp2", start, fit.Diag)
	}
	obsLogLik.Set(fit.LogLik)
	recordFitRate(fit.Samples, start)
	return fit, err
}

// emInit is one EM starting point.
type emInit struct {
	r  [2]float64
	p  [2][2]float64
	pi [2]float64
}

// defaultInit brackets the empirical mean rate with sticky transitions.
func defaultInit(mean float64) emInit {
	return emInit{
		r:  [2]float64{0.5 / mean, 2 / mean},
		p:  [2][2]float64{{0.95, 0.05}, {0.05, 0.95}},
		pi: [2]float64{0.5, 0.5},
	}
}

// warmInit starts from a previous fit: its rates and transition matrix,
// with the initial distribution set to P's stationary vector (the state
// the chain has forgotten its start in — the right prior when the new
// window overlaps the old one).
func warmInit(f *MMPP2Fit) emInit {
	in := emInit{r: f.Rates, p: f.P, pi: [2]float64{0.5, 0.5}}
	if den := f.P[0][1] + f.P[1][0]; den > 0 {
		in.pi = [2]float64{f.P[1][0] / den, f.P[0][1] / den}
	}
	return in
}

// perturbInit jitters a base point for multi-start: rates move by a
// lognormal factor, switch probabilities by a bounded lognormal factor
// (rows stay proper). The rand stream is fully determined by the seed, so
// start i's initial point — and hence its EM trajectory — depends only on
// (base, seed), never on scheduling.
func perturbInit(base emInit, seed int64) emInit {
	rng := rand.New(rand.NewSource(seed))
	in := base
	for k := 0; k < 2; k++ {
		in.r[k] *= math.Exp(0.75 * rng.NormFloat64())
		q := base.p[k][1-k] * math.Exp(0.5*rng.NormFloat64())
		if q < 1e-4 {
			q = 1e-4
		}
		if q > 0.5 {
			q = 0.5
		}
		in.p[k][1-k] = q
		in.p[k][k] = 1 - q
	}
	return in
}

// emResult pairs one start's outcome for the deterministic best-pick.
type emResult struct {
	fit MMPP2Fit
	err error
	ok  bool // slot actually ran (par.Map may skip on cancellation)
}

func fitMMPP2EM(ctx context.Context, times []float64, opt EMOptions) (MMPP2Fit, error) {
	s := opt.Scratch
	if s == nil {
		s = getScratch()
		defer putScratch(s)
	}
	x, err := s.interarrivals(times, opt.maxSamples())
	if err != nil {
		return MMPP2Fit{}, err
	}
	n := len(x)
	sumX := 0.0
	for _, v := range x {
		sumX += v
	}
	mean := sumX / float64(n)
	if !(mean > 0) {
		return MMPP2Fit{}, haperr.Badf("fit: interarrivals have zero mean")
	}

	base := defaultInit(mean)
	if opt.Warm != nil {
		base = warmInit(opt.Warm)
	}

	starts := opt.starts()
	if starts == 1 {
		return emCore(ctx, x, sumX, base, opt.maxIter(), opt.tol(), s)
	}

	// Multi-start: start 0 is the base point, the rest are perturbed from
	// par.Replicate's per-start seed. Each start runs in its own pooled
	// scratch (sharing x read-only), so result i depends only on
	// (x, base, Seed, i) — bit-identical at any worker count.
	results := par.Replicate(ctx, starts, opt.Seed, opt.Workers, func(i int, seed int64) emResult {
		init := base
		if i > 0 {
			init = perturbInit(base, seed)
		}
		ws := getScratch()
		defer putScratch(ws)
		fit, err := emCore(ctx, x, sumX, init, opt.maxIter(), opt.tol(), ws)
		return emResult{fit: fit, err: err, ok: true}
	})

	best := -1
	for i, res := range results {
		if !res.ok {
			continue
		}
		if res.err != nil && !errors.Is(res.err, haperr.ErrNotConverged) {
			continue // degenerate or cancelled start; fall back to others
		}
		if best < 0 || res.fit.LogLik > results[best].fit.LogLik {
			best = i
		}
	}
	if best < 0 {
		// No start produced a usable iterate: surface the lowest-index
		// failure (deterministic), or the context's error if nothing ran.
		for _, res := range results {
			if res.ok && res.err != nil {
				return res.fit, res.err
			}
		}
		if err := ctx.Err(); err != nil {
			return MMPP2Fit{}, fmt.Errorf("fit: MMPP2 EM cancelled before any start finished: %w", err)
		}
		return MMPP2Fit{}, haperr.Badf("fit: MMPP2 EM produced no usable start")
	}
	return results[best].fit, results[best].err
}

// emCore runs Baum-Welch from one initial point inside the given scratch.
//
// The inner loops are the module's hottest fit path and are written around
// three transforms that together remove every exp, log and divide from the
// per-sample work (DESIGN §9):
//
//   - Scaled emissions: multiplying every emission by e^{r_lo·x_t} turns
//     the slow state's density into the constant r_lo and the fast state's
//     into r_hi·e^{−Δr·x_t} — one expNeg per sample instead of several
//     math.Exp calls, with the log-likelihood recovered by subtracting
//     r_lo·Σx (Σx is computed once per fit).
//   - Power-of-two renormalisation: the forward variables are rescaled by
//     2^{−k_t} built from exponent bits, which is exact (no rounding) and
//     costs no divide; Σk_t re-enters the log-likelihood as ln2·Σk_t with
//     a single math.Log per iteration.
//   - Fused backward/M step: β is never materialised. Because α̃_t·β̃_t
//     sums to the same constant S for every t, the raw γ/ξ accumulators
//     need no per-step normalisation — S cancels in every M-step ratio
//     and the initial distribution normalises locally.
//
// Emissions are filled in 256-sample blocks interleaved with the forward
// recursion (the style of dist.ExpBatch), so each block of x and w is
// still cache-hot when the recursion consumes it.
func emCore(ctx context.Context, x []float64, sumX float64, init emInit, maxIter int, tol float64, s *Scratch) (MMPP2Fit, error) {
	const emBlock = 256 // emission batch size, mirrors dist.ExpBatch
	n := len(x)
	w, inv, a0, a1 := s.emBuffers(n)
	r, p, pi := init.r, init.p, init.pi

	loglik := math.Inf(-1)
	var delta float64
	diag := haperr.Diag{}
	for it := 1; it <= maxIter; it++ {
		if err := ctx.Err(); err != nil {
			diag.Iterations = it - 1
			diag.Residual = delta
			return MMPP2Fit{Diag: diag}, fmt.Errorf("fit: MMPP2 EM cancelled after %d iterations: %w", it-1, err)
		}

		// Scaled emissions: with r_lo = min(r), ẽ_k(t) = b_k(x_t)·e^{r_lo·x_t}
		// is r_lo for the slow state and r_hi·w_t, w_t = e^{−Δr·x_t}, for
		// the fast one. The branch-free selector form ẽ_0 = c00·w + c01,
		// ẽ_1 = c10·w + c11 handles either ordering of r without swapping
		// state labels mid-fit. w is floored at 1e-300 so a single extreme
		// interarrival cannot zero the fast state out of the posterior.
		var c00, c01, c10, c11, rLo float64
		if r[0] <= r[1] {
			c00, c01, c10, c11, rLo = 0, r[0], r[1], 0, r[0]
		} else {
			c00, c01, c10, c11, rLo = r[0], 0, 0, r[1], r[1]
		}
		dr := math.Abs(r[1] - r[0])
		p00, p01, p10, p11 := p[0][0], p[0][1], p[1][0], p[1][1]

		// E-step forward pass with power-of-two renormalisation: after
		// each step the pair (f0,f1) is scaled by d_t = 2^{−k_t} with k_t
		// read off c's exponent bits; inv[t] stores d_t for the backward
		// pass and ksum gathers Σk_t for the log-likelihood. Because d_t
		// is an exact power of two, folding it into the next step's
		// products instead of the stored pair is bit-identical — and it
		// moves the renormalisation off the recursion's latency chain
		// (the exponent extraction runs beside the transition products,
		// not before them).
		var ksum int64
		var llcorr float64
		s0, s1 := pi[0], pi[1]
		d := 1.0
		var c float64
		for t0 := 0; t0 < n; t0 += emBlock {
			t1 := t0 + emBlock
			if t1 > n {
				t1 = n
			}
			for t := t0; t < t1; t++ {
				wt := expNeg(dr * x[t])
				if wt < 1e-300 {
					wt = 1e-300
				}
				w[t] = wt
			}
			for t := t0; t < t1; t++ {
				wt := w[t]
				f0 := s0 * (c00*wt + c01) * d
				f1 := s1 * (c10*wt + c11) * d
				c = f0 + f1
				e := int64(math.Float64bits(c) >> 52 & 0x7ff)
				if e >= 1 && e <= 2044 {
					// Exact 2^{1023−e}: shifts c's magnitude into [1,2).
					d = math.Float64frombits(uint64(2046-e) << 52)
					ksum += e - 1023
				} else {
					// Subnormal or near-overflow c: divide like the old
					// scalar code did (exact-scale tricks would overflow),
					// preserving the old degeneracy diagnostics.
					if !(c > 0) || math.IsInf(c, 0) || math.IsNaN(c) {
						return MMPP2Fit{Diag: diag}, haperr.Badf("fit: MMPP2 EM forward pass degenerated at sample %d (x=%g)", t, x[t])
					}
					llcorr += math.Log(c)
					d = 1 / c
				}
				a0[t] = f0 * d
				a1[t] = f1 * d
				inv[t] = d
				s0 = f0*p00 + f1*p10
				s1 = f0*p01 + f1*p11
			}
		}
		ll := math.Log(c*inv[n-1]) + math.Ln2*float64(ksum) + llcorr - rLo*sumX

		// Fused backward pass and M step: the running pair (b0,b1) is β̃_t,
		// f_k = ẽ_k(t+1)·β̃_{t+1}(k)·d_{t+1} the shared backward factor.
		// All accumulators are raw (scale S = Σ_k α̃β̃, constant over t):
		// S cancels in r_k = Σγx̄/Σγ and in every transition-row ratio, so
		// the loop runs with zero divides.
		var sg0, sg1, sgx0, sgx1 float64
		var xi00, xi01, xi10, xi11 float64
		g0, g1 := a0[n-1], a1[n-1]
		sg0, sg1 = g0, g1
		sgx0, sgx1 = g0*x[n-1], g1*x[n-1]
		b0, b1 := 1.0, 1.0
		for t := n - 2; t >= 0; t-- {
			wt := w[t+1]
			dn := inv[t+1]
			e0d := (c00*wt + c01) * dn
			e1d := (c10*wt + c11) * dn
			fb0 := e0d * b0
			fb1 := e1d * b1
			at0, at1 := a0[t], a1[t]
			xi00 += at0 * p00 * fb0
			xi01 += at0 * p01 * fb1
			xi10 += at1 * p10 * fb0
			xi11 += at1 * p11 * fb1
			nb0 := p00*fb0 + p01*fb1
			nb1 := p10*fb0 + p11*fb1
			g0 = at0 * nb0
			g1 = at1 * nb1
			sg0 += g0
			sg1 += g1
			sgx0 += g0 * x[t]
			sgx1 += g1 * x[t]
			b0, b1 = nb0, nb1
		}
		// After the loop g0,g1 hold the raw posterior at t=0.
		if sgx0 > 0 {
			r[0] = sg0 / sgx0
		}
		if sgx1 > 0 {
			r[1] = sg1 / sgx1
		}
		if out := xi00 + xi01; out > 0 {
			p[0][0] = xi00 / out
			p[0][1] = xi01 / out
		}
		if out := xi10 + xi11; out > 0 {
			p[1][0] = xi10 / out
			p[1][1] = xi11 / out
		}
		// Keep transitions proper: a row collapsing to an absorbing state
		// has left the 2-state family.
		const floor = 1e-12
		for k := 0; k < 2; k++ {
			if p[k][0] < floor {
				p[k][0], p[k][1] = floor, 1-floor
			}
			if p[k][1] < floor {
				p[k][1], p[k][0] = floor, 1-floor
			}
		}
		if tot := g0 + g1; tot > 0 {
			pi[0] = g0 / tot
			pi[1] = g1 / tot
		}

		delta = ll - loglik
		loglik = ll
		diag.Iterations = it
		diag.Residual = math.Abs(delta) / float64(n)
		if it > 1 && diag.Residual < tol {
			diag.Converged = true
			break
		}
	}

	// Canonical order: state 0 is the slow (low-rate) state.
	if r[0] > r[1] {
		r[0], r[1] = r[1], r[0]
		p[0][0], p[1][1] = p[1][1], p[0][0]
		p[0][1], p[1][0] = p[1][0], p[0][1]
	}
	fit := MMPP2Fit{
		Rates:   r,
		P:       p,
		LogLik:  loglik,
		Samples: n,
		Diag:    diag,
		Model: mmpp.MMPP2{
			R0:  r[0],
			R1:  r[1],
			Q01: p[0][1] * r[0],
			Q10: p[1][0] * r[1],
		},
	}
	if err := fit.Model.Validate(); err != nil {
		return fit, haperr.Badf("fit: EM produced an invalid MMPP2 (%v)", err)
	}
	if !diag.Converged {
		return fit, fmt.Errorf("fit: MMPP2 EM used all %d iterations (last per-sample improvement %.3g): %w",
			maxIter, diag.Residual, haperr.ErrNotConverged)
	}
	return fit, nil
}

// interarrivals converts sorted arrival timestamps to the (optionally
// capped) interarrival sequence EM consumes, freshly allocated at the
// capped size — the model-selection path keeps this sample alive across
// candidates, so it must not alias a reusable arena. Hot paths use
// Scratch.interarrivals instead.
func interarrivals(times []float64, maxSamples int) ([]float64, error) {
	var s Scratch
	x, err := s.interarrivals(times, maxSamples)
	if err != nil {
		return nil, err
	}
	return x, nil
}
