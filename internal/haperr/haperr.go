// Package haperr defines the error vocabulary shared by the numeric core
// (solver, gm1, markov, sim) and the cmd/ binaries: sentinel errors that
// classify *why* an iterative computation stopped, a Diag record that every
// iterative result carries so callers can see how hard convergence was, and
// the exit-code convention the binaries use to report those classes to
// shells and batch schedulers.
//
// Error semantics across the library:
//
//   - Invalid user-supplied parameters (negative rates, NaN/Inf inputs,
//     empty models) return errors wrapping ErrBadParameter from the API
//     boundary (core.Model.Validate, gm1.Solve, sim.Config.Validate, the
//     solver entry points). Library panics are reserved for provable
//     internal invariants — indexing bugs, shape mismatches between
//     library-built matrices — that no parameter set reachable from the
//     binaries can trigger.
//   - An unstable queue (ρ >= 1) returns ErrUnstable.
//   - An exhausted iteration budget returns ErrNotConverged; the best
//     iterate is usually still returned alongside it, flagged via Diag.
//   - A cancelled or deadline-bounded context returns the context's own
//     error (context.Canceled / context.DeadlineExceeded), wrapped.
//   - A σ fixed-point iteration that collapses onto the trivial root σ = 1
//     despite a stable load returns ErrTrivialRoot instead of fabricating
//     a near-1 result.
package haperr

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel errors. Test with errors.Is; the numeric packages re-export the
// ones they own (gm1.ErrUnstable, markov.ErrNotConverged) as aliases of
// these, so either spelling matches.
var (
	// ErrBadParameter classifies invalid user-supplied parameters.
	ErrBadParameter = errors.New("invalid parameter")
	// ErrUnstable reports a queue with ρ >= 1 (no steady state exists).
	ErrUnstable = errors.New("queue is unstable (rho >= 1)")
	// ErrNotConverged reports an exhausted iteration budget.
	ErrNotConverged = errors.New("iteration did not converge")
	// ErrTrivialRoot reports a σ solver that converged to the trivial fixed
	// point σ = 1 even though the queue is stable; the bisection method is
	// immune and should be used instead.
	ErrTrivialRoot = errors.New("sigma iteration collapsed to the trivial root sigma = 1")
)

// Badf builds an error wrapping ErrBadParameter.
func Badf(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrBadParameter)
}

// Diag records how an iterative computation went. Every iterative solver
// result embeds one, so "it returned a number" and "it converged" stay
// distinguishable.
type Diag struct {
	// Iterations actually used (sweeps, bisection steps, fixed-point steps).
	Iterations int
	// Residual is the final convergence metric: |A*(μ−μσ)−σ| for the σ
	// solvers, the total-variation change of the last sweep for the chain
	// solvers.
	Residual float64
	// Converged reports the tolerance was met within the budget.
	Converged bool
	// Truncated reports a state-space or event-budget truncation touched
	// the result (lattice bounds, MaxEvents).
	Truncated bool
	// Fallback names the method that actually produced the result when the
	// requested one exhausted its budget ("" = no degradation).
	Fallback string
	// Bracket is the σ bracket probe history ([probe, h(probe)] pairs
	// flattened) recorded by the bisection solver; nil elsewhere.
	Bracket []float64
}

func (d Diag) String() string {
	s := fmt.Sprintf("iters=%d residual=%.3g converged=%v", d.Iterations, d.Residual, d.Converged)
	if d.Truncated {
		s += " truncated"
	}
	if d.Fallback != "" {
		s += " fallback=" + d.Fallback
	}
	return s
}

// Exit codes shared by the cmd/ binaries. 2 is for usage errors: a flag
// that does not parse (the flag package's own convention) and any error
// wrapping ErrBadParameter.
const (
	ExitOK           = 0
	ExitError        = 1 // any other failure
	ExitUsage        = 2
	ExitUnstable     = 3
	ExitNotConverged = 4
	ExitCancelled    = 5 // context cancelled or deadline exceeded
)

// ExitCode maps an error to the binaries' shared exit-code convention.
// Cancellation outranks the other classes: a solve that was cut off did not
// "fail to converge", it was never allowed to finish.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ExitCancelled
	case errors.Is(err, ErrBadParameter):
		return ExitUsage
	case errors.Is(err, ErrUnstable):
		return ExitUnstable
	case errors.Is(err, ErrNotConverged), errors.Is(err, ErrTrivialRoot):
		return ExitNotConverged
	default:
		return ExitError
	}
}
