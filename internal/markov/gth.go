package markov

import (
	"context"
	"fmt"

	"hap/internal/haperr"
)

// This file is the direct stationary solve: Grassmann–Taksar–Heyman (GTH)
// state reduction. Eliminating the highest remaining state k censors the
// chain onto {0..k−1}:
//
//	s_k     = Σ_{j<k} q(k, j)                 (k's rate back into the kept states)
//	q(i, k) ← q(i, k)/s_k                       (i < k)
//	q(i, j) ← q(i, j) + q(i, k)·q(k, j)         (i, j < k: paths through k)
//
// and back substitution from π_0 = 1 recovers π_k = Σ_{i<k} π_i·q(i, k),
// the censored chain's balance at k. Every step adds, multiplies or
// divides non-negative numbers, so nothing cancels: each π_k is accurate
// to round-off relative to itself, tail states far below the bulk
// included, which an iterate stopped at an absolute tolerance cannot
// resolve. Fill-in from eliminating k joins states i and j that are both
// band neighbours of k, so it stays inside the band of the original rate
// matrix: a chain whose transitions move at most lo states down and hi
// states up is solved in n·(lo+hi+1) storage and O(n·lo·hi) time.

// maxBandStorage caps a direct solve's band storage at 2²² float64s
// (32 MiB). A chain whose band is wider — an asymmetric lattice, whose
// leading stride is the product of every other dimension's size — is
// solved by uniformised power iteration instead, whose storage is linear
// in its transitions.
const maxBandStorage = 1 << 22

// bandwidth returns how far the chain's transitions reach below and above
// their source state: lo = max(from − to), hi = max(to − from). A Lattice
// puts its last dimension at stride 1, so the modulator on (x, y) has
// lo = hi = maxApps + 1, the stride of x.
func (c *Chain) bandwidth() (lo, hi int) {
	for i, row := range c.rows {
		for _, tr := range row {
			if d := i - tr.To; d > lo {
				lo = d
			} else if -d > hi {
				hi = -d
			}
		}
	}
	return lo, hi
}

// Stationary returns the stationary distribution of an irreducible chain.
// It is the direct GTH solve whenever the chain's band storage fits
// maxBandStorage, and SteadyState's power iteration (with opts) past it;
// Stats.Iterations is 0 for a direct solve. opts.Ctx cancels either path.
func (c *Chain) Stationary(opts *SteadyOptions) ([]float64, Stats, error) {
	lo, hi := c.bandwidth()
	if c.N()*(lo+hi+1) > maxBandStorage {
		return c.SteadyState(opts)
	}
	var ctx context.Context
	if opts != nil {
		ctx = opts.Ctx
	}
	pi, err := c.GTH(ctx)
	if err != nil {
		return nil, Stats{}, err
	}
	return pi, Stats{Converged: true}, nil
}

// GTH computes the stationary distribution by banded GTH state reduction
// (see the top of this file), whatever the band's size. A nil ctx is
// never cancelled. A chain that is not irreducible has no unique
// stationary law and is reported as an error wrapping
// haperr.ErrBadParameter.
func (c *Chain) GTH(ctx context.Context) ([]float64, error) {
	n := c.N()
	lo, hi := c.bandwidth()
	ld := lo + hi
	a := make([]float64, n*(ld+1))
	for i, row := range c.rows {
		for _, tr := range row {
			a[i*ld+tr.To+lo] += tr.Rate
		}
	}
	pi, err := gth(ctx, a, n, ld, lo, lo, hi)
	if err != nil {
		return nil, err
	}
	obsDirect.Inc()
	return pi, nil
}

// GTHDense computes the stationary distribution of the n-state generator
// whose off-diagonal rates are q[i*n+j] (the diagonal is ignored) by the
// same state reduction, overwriting q. It is the direct solve for small
// dense generators, such as a censored chain.
func GTHDense(ctx context.Context, q []float64, n int) ([]float64, error) {
	if len(q) != n*n {
		panic(fmt.Sprintf("markov: GTHDense got %d rates for %d states", len(q), n))
	}
	pi, err := gth(ctx, q, n, n, 0, n-1, n-1)
	if err != nil {
		return nil, err
	}
	obsDirect.Inc()
	return pi, nil
}

// gth runs the state reduction on the rate matrix stored in a, where the
// rate (i, j) sits at a[i*ld+j+off] for j−i in [−lo, hi]: band storage has
// ld = lo+hi and off = lo (row i holds columns i−lo..i+hi), dense storage
// ld = n and off = 0. It returns the normalised stationary vector.
func gth(ctx context.Context, a []float64, n, ld, off, lo, hi int) ([]float64, error) {
	for k := n - 1; k > 0; k-- {
		// Poll before the first elimination and every 64th after it: each
		// costs up to lo·hi multiply-adds.
		if ctx != nil && (n-1-k)&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("markov: gth: %w", err)
			}
		}
		j0 := max(0, k-lo)
		rk := a[k*ld+j0+off : k*ld+k+off] // q(k, j0..k−1)
		var s float64
		for _, v := range rk {
			s += v
		}
		if s == 0 {
			return nil, fmt.Errorf("markov: gth: state %d cannot reach any state below it, so the chain is not irreducible: %w", k, haperr.ErrBadParameter)
		}
		for i := max(0, k-hi); i < k; i++ {
			qik := a[i*ld+k+off]
			if qik == 0 {
				continue
			}
			f := qik / s
			a[i*ld+k+off] = f
			ri := a[i*ld+j0+off:][:len(rk)] // q(i, j0..k−1)
			for j, v := range rk {
				ri[j] += f * v
			}
		}
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("markov: gth: %w", err)
		}
	}
	pi := make([]float64, n)
	pi[0] = 1
	for k := 1; k < n; k++ {
		var v float64
		for i := max(0, k-hi); i < k; i++ {
			v += pi[i] * a[i*ld+k+off]
		}
		pi[k] = v
		// π_0 = 1 may be far below the bulk; rescale before the
		// unnormalised mass can overflow.
		if v > 1e250 {
			for i := 0; i <= k; i++ {
				pi[i] /= v
			}
		}
	}
	normalise(pi)
	return pi, nil
}
