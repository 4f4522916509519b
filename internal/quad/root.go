package quad

import (
	"context"
	"math"
)

// Bisect finds a root of f in [a, b] to absolute tolerance tol on x, and
// reports the number of bisection steps used. f(a) and f(b) must bracket a
// sign change; Bisect returns ErrNoConvergence otherwise.
func Bisect(f Func, a, b, tol float64) (float64, int, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, 0, nil
	}
	if fb == 0 {
		return b, 0, nil
	}
	if fa*fb > 0 {
		return 0, 0, ErrNoConvergence
	}
	iters := 0
	for iters < 200 && b-a > tol {
		iters++
		m := (a + b) / 2
		fm := f(m)
		if fm == 0 {
			return m, iters, nil
		}
		if fa*fm < 0 {
			b, fb = m, fm
		} else {
			a, fa = m, fm
		}
	}
	_ = fb
	return (a + b) / 2, iters, nil
}

// FixedPoint iterates x ← (1-damp)·x + damp·g(x) until |g(x)-x| < tol or
// maxIter is exhausted. damp = 0.5 reproduces the paper's σ-algorithm, which
// averages the previous iterate with the map value at every step.
// It returns the final iterate, the number of iterations used, and
// ErrNoConvergence when the budget runs out. ctx (nil means "never
// cancelled") is polled every few iterations, and the context error is
// returned with the current iterate when it fires: the map g may be
// expensive (Laplace transforms of large mixtures), so long budgets want a
// cancel path.
func FixedPoint(ctx context.Context, g Func, x0, damp, tol float64, maxIter int) (float64, int, error) {
	if damp <= 0 || damp > 1 {
		damp = 0.5
	}
	if maxIter <= 0 {
		maxIter = 1000
	}
	x := x0
	for i := 1; i <= maxIter; i++ {
		if ctx != nil && i%32 == 0 {
			if err := ctx.Err(); err != nil {
				return x, i, err
			}
		}
		gx := g(x)
		if math.Abs(gx-x) < tol {
			return gx, i, nil
		}
		x = (1-damp)*x + damp*gx
	}
	return x, maxIter, ErrNoConvergence
}
