package gm1

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"hap/internal/dist"
)

func wantClose(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if math.Abs(got-want) > relTol*math.Max(1e-12, math.Abs(want)) {
		t.Errorf("%s = %v, want %v (rel tol %v)", name, got, want, relTol)
	}
}

func TestSolveRecoversMM1(t *testing.T) {
	// Exponential interarrivals: σ must equal ρ and T = 1/(μ−λ).
	lambda, mu := 8.25, 20.0
	e := dist.NewExponential(lambda)
	for _, method := range []Method{MethodBisect, MethodPaper} {
		res, err := Solve(e.Laplace, lambda, mu, &Options{Method: method})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		wantClose(t, method.String()+" sigma", res.Sigma, lambda/mu, 1e-7)
		wantClose(t, method.String()+" delay", res.Delay, 1/(mu-lambda), 1e-6)
		wantClose(t, method.String()+" queue", res.QueueLen, lambda/(mu-lambda), 1e-6)
	}
}

func TestSolveED1KnownBehaviour(t *testing.T) {
	// Erlang (smoother than Poisson) interarrivals must wait LESS than
	// M/M/1 at equal rates; hyperexponential must wait MORE.
	lambda, mu := 5.0, 10.0
	mm1, _ := MM1(lambda, mu)
	erl := dist.NewErlang(4, 4*lambda) // mean 1/λ, SCV 1/4
	hyper := dist.NewHyperExponential([]float64{0.9, 0.1}, []float64{0.9 * lambda / 0.5, 0.1 * lambda / 0.5})
	resE, err := Solve(erl.Laplace, lambda, mu, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resE.Delay >= mm1.Delay {
		t.Errorf("E4/M/1 delay %v should undercut M/M/1 %v", resE.Delay, mm1.Delay)
	}
	resH, err := Solve(hyper.Laplace, 1/hyper.Mean(), mu, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resH.Delay <= mm1.Delay {
		t.Errorf("H2/M/1 delay %v should exceed M/M/1 %v", resH.Delay, mm1.Delay)
	}
}

func TestPaperAndBisectAgree(t *testing.T) {
	lambda, mu := 5.0, 10.0
	h := dist.NewHyperExponential([]float64{0.6, 0.4}, []float64{3, 20})
	lam := 1 / h.Mean()
	_ = lambda
	a, err := Solve(h.Laplace, lam, mu, &Options{Method: MethodBisect})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(h.Laplace, lam, mu, &Options{Method: MethodPaper})
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "sigma agreement", a.Sigma, b.Sigma, 1e-6)
}

func TestMeanWaitConsistentWithCDF(t *testing.T) {
	lambda, mu := 6.0, 10.0
	e := dist.NewExponential(lambda)
	res, _ := Solve(e.Laplace, lambda, mu, nil)
	// E[W] from the CDF: σ/(μ(1−σ)).
	wantClose(t, "wait", res.Wait, res.Sigma/(res.Mu*(1-res.Sigma)), 1e-12)
	wantClose(t, "delay = wait + service", res.Delay, res.Wait+1/mu, 1e-12)
}

func TestUnstableQueue(t *testing.T) {
	e := dist.NewExponential(10)
	_, err := Solve(e.Laplace, 10, 10, nil)
	if !errors.Is(err, ErrUnstable) {
		t.Errorf("expected ErrUnstable, got %v", err)
	}
	if _, err := MM1(11, 10); !errors.Is(err, ErrUnstable) {
		t.Error("MM1 must reject rho >= 1")
	}
	if _, err := Solve(e.Laplace, -1, 10, nil); err == nil {
		t.Error("negative lambda must error")
	}
}

func TestMM1MatchesSolve(t *testing.T) {
	lambda, mu := 8.25, 20.0
	closed, _ := MM1(lambda, mu)
	e := dist.NewExponential(lambda)
	solved, _ := Solve(e.Laplace, lambda, mu, nil)
	wantClose(t, "delay", closed.Delay, solved.Delay, 1e-6)
	wantClose(t, "delay value", closed.Delay, 0.0851, 2e-3) // paper: 0.085
}

// Property: for hyperexponential interarrivals with random mixtures, σ is
// in (0,1), the fixed point is satisfied, and delay exceeds the service
// time.
func TestQuickSigmaFixedPoint(t *testing.T) {
	f := func(w1, w2, r1, r2, load float64) bool {
		p1 := math.Abs(math.Mod(w1, 1)) + 0.05
		p2 := math.Abs(math.Mod(w2, 1)) + 0.05
		rt1 := math.Abs(math.Mod(r1, 20)) + 0.5
		rt2 := math.Abs(math.Mod(r2, 20)) + 0.5
		h := dist.NewHyperExponential([]float64{p1, p2}, []float64{rt1, rt2})
		lambda := 1 / h.Mean()
		rho := math.Abs(math.Mod(load, 0.85)) + 0.05
		mu := lambda / rho
		res, err := Solve(h.Laplace, lambda, mu, nil)
		if err != nil {
			return false
		}
		if res.Sigma <= 0 || res.Sigma >= 1 {
			return false
		}
		if math.Abs(h.Laplace(mu-mu*res.Sigma)-res.Sigma) > 1e-6 {
			return false
		}
		return res.Delay >= 1/mu-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestWarmSigmaBracket asserts the warm-start contract of the bisection:
// seeding a solve with a nearby previous σ lands on the same root in
// strictly fewer transform evaluations, and a wildly wrong hint still
// converges to the correct root (correctness never depends on the hint).
func TestWarmSigmaBracket(t *testing.T) {
	lambda, mu := 8.25, 20.0
	e := dist.NewExponential(lambda)
	cold, err := Solve(e.Laplace, lambda, mu, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Nudge the load slightly — the continuous re-solve scenario — and
	// warm-start from the previous σ.
	lambda2 := lambda * 1.02
	e2 := dist.NewExponential(lambda2)
	cold2, err := Solve(e2.Laplace, lambda2, mu, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Solve(e2.Laplace, lambda2, mu, &Options{WarmSigma: cold.Sigma})
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "warm sigma", warm.Sigma, cold2.Sigma, 1e-7)
	if warm.Iterations >= cold2.Iterations {
		t.Errorf("warm solve spent %d evaluations, cold spent %d — warm should be cheaper",
			warm.Iterations, cold2.Iterations)
	}
	// A stale hint far from the root must still converge.
	for _, hint := range []float64{1e-9, 0.999999} {
		res, err := Solve(e2.Laplace, lambda2, mu, &Options{WarmSigma: hint})
		if err != nil {
			t.Fatalf("hint %g: %v", hint, err)
		}
		wantClose(t, "stale-hint sigma", res.Sigma, cold2.Sigma, 1e-7)
	}
}
