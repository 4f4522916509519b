// Package quad provides the small numerical toolkit the HAP solvers need:
// adaptive quadrature on finite and semi-infinite intervals (for Laplace
// transforms of the closed-form interarrival density in Solution 2), and
// root finding and damped fixed-point iteration (for the G/M/1 σ equation).
//
// Everything is dependency-free and deterministic; tolerances are absolute
// unless noted.
package quad

import (
	"errors"
	"math"
)

// ErrNoConvergence is returned when an iteration exhausts its budget
// without meeting its tolerance.
var ErrNoConvergence = errors.New("quad: no convergence")

// Func is a real function of one real variable.
type Func func(x float64) float64

// Simpson integrates f over [a, b] with adaptive Simpson quadrature to the
// requested absolute tolerance. It panics if a > b.
func Simpson(f Func, a, b, tol float64) float64 {
	if a > b {
		panic("quad: Simpson needs a <= b")
	}
	if a == b {
		return 0
	}
	if tol <= 0 {
		tol = 1e-10
	}
	fa, fb := f(a), f(b)
	m := (a + b) / 2
	fm := f(m)
	whole := simpsonRule(a, b, fa, fm, fb)
	return adaptiveSimpson(f, a, b, fa, fm, fb, whole, tol, 50)
}

func simpsonRule(a, b, fa, fm, fb float64) float64 {
	return (b - a) / 6 * (fa + 4*fm + fb)
}

func adaptiveSimpson(f Func, a, b, fa, fm, fb, whole, tol float64, depth int) float64 {
	m := (a + b) / 2
	lm, rm := (a+m)/2, (m+b)/2
	flm, frm := f(lm), f(rm)
	left := simpsonRule(a, m, fa, flm, fm)
	right := simpsonRule(m, b, fm, frm, fb)
	if depth <= 0 {
		return left + right
	}
	if math.Abs(left+right-whole) <= 15*tol {
		return left + right + (left+right-whole)/15
	}
	return adaptiveSimpson(f, a, m, fa, flm, fm, left, tol/2, depth-1) +
		adaptiveSimpson(f, m, b, fm, frm, fb, right, tol/2, depth-1)
}

// ToInf integrates f over [a, ∞) by summing adaptive-Simpson integrals over
// geometrically growing windows until a window's contribution falls below
// tol. The integrand must decay to zero; scale sets the width of the first
// window (pass a characteristic time of the integrand, e.g. 1/rate).
func ToInf(f Func, a, scale, tol float64) float64 {
	if scale <= 0 {
		scale = 1
	}
	if tol <= 0 {
		tol = 1e-10
	}
	total := 0.0
	lo := a
	w := scale
	for i := 0; i < 200; i++ {
		hi := lo + w
		part := Simpson(f, lo, hi, tol/4)
		total += part
		if math.Abs(part) < tol && i > 2 {
			return total
		}
		lo = hi
		w *= 2
	}
	return total
}
