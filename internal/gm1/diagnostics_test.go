package gm1

import (
	"context"
	"errors"
	"math"
	"testing"

	"hap/internal/dist"
	"hap/internal/haperr"
)

// The bisection solver must report the iterations it actually spent (the
// old code always said 0) along with a residual and the bracket history.
func TestBisectReportsIterations(t *testing.T) {
	lambda, mu := 8.25, 20.0
	e := dist.NewExponential(lambda)
	res, err := Solve(e.Laplace, lambda, mu, &Options{Method: MethodBisect})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations <= 0 {
		t.Errorf("Iterations = %d, want > 0", res.Iterations)
	}
	if !res.Converged {
		t.Error("Converged must be true on success")
	}
	if !(res.Residual >= 0) || res.Residual > 1e-8 {
		t.Errorf("Residual = %v, want small and non-negative", res.Residual)
	}
	if len(res.Bracket) == 0 || len(res.Bracket)%2 != 0 {
		t.Errorf("Bracket = %v, want non-empty (probe, h) pairs", res.Bracket)
	}
	d := res.Diag()
	if d.Iterations != res.Iterations || !d.Converged {
		t.Errorf("Diag() = %+v disagrees with result", d)
	}
}

// The probe scan must stop at the first negative probe: any point with
// h < 0 already lies between the root and 1, so scanning further only
// wastes transform evaluations.
func TestProbeScanStopsAtFirstNegative(t *testing.T) {
	lambda, mu := 5.0, 10.0
	evals := 0
	e := dist.NewExponential(lambda)
	counted := func(s float64) float64 { evals++; return e.Laplace(s) }
	res, err := Solve(counted, lambda, mu, &Options{Method: MethodBisect})
	if err != nil {
		t.Fatal(err)
	}
	// σ = 0.5 here, so h(0.999) < 0 already: exactly one probe recorded.
	if len(res.Bracket) != 2 {
		t.Errorf("bracket history %v, want a single (probe, h) pair", res.Bracket)
	}
	if res.Bracket[0] != 0.999 || res.Bracket[1] >= 0 {
		t.Errorf("first probe (%v, %v), want (0.999, <0)", res.Bracket[0], res.Bracket[1])
	}
	// Evaluations: 1 probe + ~log2(1/tol) bisection steps + 1 residual.
	if evals > 60 {
		t.Errorf("%d transform evaluations, want the scan to stop at the first negative probe", evals)
	}
}

// A degenerate transform A*(s) = 1 drives the paper's averaging iteration
// onto the trivial fixed point σ = 1. The old code silently clamped σ to
// 1−1e-12 and reported a near-infinite delay; it must now refuse with
// ErrTrivialRoot.
func TestTrivialRootDetected(t *testing.T) {
	degenerate := func(float64) float64 { return 1 }
	_, err := Solve(degenerate, 5, 10, &Options{Method: MethodPaper, MaxIter: 100000})
	if !errors.Is(err, ErrTrivialRoot) {
		t.Fatalf("err = %v, want ErrTrivialRoot", err)
	}
	if code := haperr.ExitCode(err); code != haperr.ExitNotConverged {
		t.Errorf("exit code %d, want %d", code, haperr.ExitNotConverged)
	}
}

// Near-critical sweep (the PR's G/M/1 correctness sweep): both σ methods
// must agree tightly for every stable load and fail with ErrUnstable —
// never a negative delay or a silent clamp — at and beyond ρ = 1.
func TestNearCriticalSweep(t *testing.T) {
	const mu = 10.0
	for _, rho := range []float64{0.95, 0.99, 0.999, 1.0, 1.1} {
		lambda := rho * mu
		e := dist.NewExponential(lambda)
		if rho >= 1 {
			for _, method := range []Method{MethodBisect, MethodPaper} {
				if _, err := Solve(e.Laplace, lambda, mu, &Options{Method: method}); !errors.Is(err, ErrUnstable) {
					t.Errorf("rho=%v %v: err = %v, want ErrUnstable", rho, method, err)
				}
			}
			if _, err := MM1(lambda, mu); !errors.Is(err, ErrUnstable) {
				t.Errorf("rho=%v MM1: want ErrUnstable", rho)
			}
			continue
		}
		// The averaging iteration contracts at rate (1+ρ)/2 near the root,
		// so ρ = 0.999 legitimately needs a far bigger budget than the
		// default; the point of the sweep is that with the budget it still
		// finds the same non-trivial root as the bisection.
		bis, err := Solve(e.Laplace, lambda, mu, &Options{Method: MethodBisect})
		if err != nil {
			t.Fatalf("rho=%v bisect: %v", rho, err)
		}
		pap, err := Solve(e.Laplace, lambda, mu, &Options{Method: MethodPaper, MaxIter: 300000})
		if err != nil {
			t.Fatalf("rho=%v paper: %v", rho, err)
		}
		if math.Abs(bis.Sigma-pap.Sigma) > 1e-6 {
			t.Errorf("rho=%v: sigma bisect %v vs paper %v", rho, bis.Sigma, pap.Sigma)
		}
		wantClose(t, "sigma vs rho", bis.Sigma, rho, 1e-6) // M/M/1: σ = ρ
		mm1, err := MM1(lambda, mu)
		if err != nil {
			t.Fatalf("rho=%v MM1: %v", rho, err)
		}
		wantClose(t, "delay vs MM1", bis.Delay, mm1.Delay, 1e-5)
		if bis.Delay <= 0 || pap.Delay <= 0 {
			t.Errorf("rho=%v: non-positive delay (bisect %v, paper %v)", rho, bis.Delay, pap.Delay)
		}
	}
}

func TestMM1ZeroLambdaEmptyLink(t *testing.T) {
	res, err := MM1(0, 10)
	if err != nil {
		t.Fatalf("MM1(0, mu): %v", err)
	}
	if res.Delay != 0.1 || res.QueueLen != 0 || res.Sigma != 0 {
		t.Errorf("empty link = %+v, want delay 1/mu and empty queue", res)
	}
}

func TestSolveRejectsBadInputs(t *testing.T) {
	e := dist.NewExponential(5)
	for _, bad := range [][2]float64{
		{math.NaN(), 10}, {5, math.NaN()}, {math.Inf(1), 10}, {5, math.Inf(1)}, {0, 10}, {5, 0},
	} {
		_, err := Solve(e.Laplace, bad[0], bad[1], nil)
		if !errors.Is(err, haperr.ErrBadParameter) {
			t.Errorf("Solve(λ=%v, μ=%v): err = %v, want ErrBadParameter", bad[0], bad[1], err)
		}
	}
}

func TestSolveCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := dist.NewExponential(5)
	_, err := Solve(e.Laplace, 5, 10, &Options{Method: MethodPaper, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if code := haperr.ExitCode(err); code != haperr.ExitCancelled {
		t.Errorf("exit code %d, want %d", code, haperr.ExitCancelled)
	}
}
