package solver

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"hap/internal/core"
	"hap/internal/haperr"
	"hap/internal/markov"
	"hap/internal/mmpp"
)

// Near-critical sweep through the analytic solutions: every clearly stable
// load must converge with plausible diagnostics, and every load at or past
// the reduction's critical point must fail with ErrUnstable rather than a
// bogus result. ρ is steered through the message service rate: λ̄ is 8.25
// for the paper's parameters, so μ” = 8.25/ρ.
//
// The critical band starts slightly BELOW nominal ρ = 1: the rate-weighted
// exponential mixture of Solutions 1/2 overrepresents high-rate modulator
// states at arrival instants, so its renewal rate 1/E[T] (≈ 8.286 here)
// exceeds λ̄ = 8.25, and the G/M/1 reduction goes critical around nominal
// ρ ≈ 0.996. Loads in [0.996, 1] must therefore surface ErrUnstable (σ
// indistinguishable from 1) — never a silently clamped σ or a negative
// delay.
func TestSolverNearCriticalSweep(t *testing.T) {
	meanRate := core.PaperParams(20).MeanRate() // 8.25, independent of μ''
	for _, rho := range []float64{0.95, 0.99, 0.999, 1.0, 1.1} {
		m := core.PaperParams(meanRate / rho)
		for name, solve := range map[string]func() (Result, error){
			"solution1": func() (Result, error) { return Solution1(m, nil) },
			"solution2": func() (Result, error) { return Solution2(m, nil) },
		} {
			res, err := solve()
			if rho >= 0.999 {
				// Inside the reduction's critical band: the only acceptable
				// outcomes are a typed instability error or (for a truncated
				// modulator that sheds a sliver of rate) a converged σ ≈ 1.
				if err != nil {
					if !errors.Is(err, haperr.ErrUnstable) {
						t.Errorf("rho=%v %s: err = %v, want ErrUnstable", rho, name, err)
					}
				} else if rho > 1 {
					t.Errorf("rho=%v %s: solved an unstable queue (σ=%v)", rho, name, res.Sigma)
				} else if res.Sigma < 0.99 || res.Sigma >= 1 {
					t.Errorf("rho=%v %s: σ = %v, want σ ≈ 1 at the critical load", rho, name, res.Sigma)
				}
				continue
			}
			if err != nil {
				t.Errorf("rho=%v %s: %v", rho, name, err)
				continue
			}
			if !res.Converged || res.Iterations <= 0 {
				t.Errorf("rho=%v %s: diagnostics %+v, want converged with iterations", rho, name, res.Diag())
			}
			if res.Delay <= 0 || res.Sigma <= 0 || res.Sigma >= 1 {
				t.Errorf("rho=%v %s: implausible σ=%v delay=%v", rho, name, res.Sigma, res.Delay)
			}
		}
	}
}

// Cancelling mid-solve must abort Solution 0 promptly with the context
// error — not fall back, not return a half-converged answer as success.
func TestSolution0CancelPromptly(t *testing.T) {
	// A near-critical load plus a generous queue bound gives the sweep
	// plenty of work; without cancellation this solve takes many seconds.
	m := core.PaperParams(8.6) // ρ ≈ 0.96
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Solution0(m, &Options{Ctx: ctx, MaxIter: 1 << 30, MaxQueue: 2000, DisableWarmStart: true})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
	if code := haperr.ExitCode(err); code != haperr.ExitCancelled {
		t.Errorf("exit code %d, want %d", code, haperr.ExitCancelled)
	}
}

// The matrix-geometric solves poll the context too: with one already
// cancelled they return its error without solving.
func TestQBDSolvesHonourCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := core.PaperParams(20)
	opts := &Options{MaxUsers: 8, MaxApps: 48, Ctx: ctx}
	if res, err := Solution0MG(m, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("Solution0MG: %v, err = %v, want context.Canceled", res, err)
	}
	if q, err := DelayQuantiles(m, opts, 0.5, 0.99); !errors.Is(err, context.Canceled) {
		t.Errorf("DelayQuantiles: %v, err = %v, want context.Canceled", q, err)
	}
}

// An exhausted sweep budget must degrade to the closed-form Solution 2
// with the Degraded flag — and must not when the fallback is disabled.
func TestSolution0FallbackOnExhaustedBudget(t *testing.T) {
	m := core.PaperParams(20)
	opts := &Options{MaxIter: 2, DisableWarmStart: true}
	res, err := Solution0(m, opts)
	if err != nil {
		t.Fatalf("expected degraded fallback result, got error %v", err)
	}
	if !res.Degraded || res.Method != "solution0-fallback-solution2" {
		t.Errorf("result %+v, want Degraded solution0-fallback-solution2", res)
	}
	if res.Delay <= 0 {
		t.Errorf("fallback delay %v, want positive", res.Delay)
	}
	if d := res.Diag(); d.Fallback == "" {
		t.Errorf("Diag().Fallback empty, want the fallback method recorded")
	}

	strict := &Options{MaxIter: 2, DisableWarmStart: true, DisableFallback: true}
	res, err = Solution0(m, strict)
	if !errors.Is(err, markov.ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged with fallback disabled", err)
	}
	if res.Iterations != 2 {
		t.Errorf("partial result iterations = %d, want the spent budget (2)", res.Iterations)
	}
	if code := haperr.ExitCode(err); code != haperr.ExitNotConverged {
		t.Errorf("exit code %d, want %d", code, haperr.ExitNotConverged)
	}
}

// Adversarial parameters must surface as errors from every solution, never
// as panics: this is the cmd binaries' no-panic guarantee.
func TestNoPanicOnAdversarialModels(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	models := map[string]*core.Model{
		"negative-lambda": core.NewSymmetric(-1, 0.001, 0.01, 0.01, 0.1, 20, 5, 3),
		"zero-mu":         core.NewSymmetric(0.0055, 0, 0.01, 0.01, 0.1, 20, 5, 3),
		"nan-rate":        core.NewSymmetric(0.0055, 0.001, nan, 0.01, 0.1, 20, 5, 3),
		"inf-rate":        core.NewSymmetric(0.0055, 0.001, 0.01, 0.01, inf, 20, 5, 3),
		"nan-service":     core.NewSymmetric(0.0055, 0.001, 0.01, 0.01, 0.1, nan, 5, 3),
		"no-apps":         {Name: "empty", Lambda: 1, Mu: 1},
	}
	for name, m := range models {
		for method, solve := range map[string]func() (Result, error){
			"solution0": func() (Result, error) { return Solution0(m, nil) },
			"solution1": func() (Result, error) { return Solution1(m, nil) },
			"solution2": func() (Result, error) { return Solution2(m, nil) },
			"exact":     func() (Result, error) { return Solution0MG(m, nil) },
			"poisson":   func() (Result, error) { return Poisson(m) },
		} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s/%s panicked: %v", name, method, r)
					}
				}()
				if _, err := solve(); err == nil {
					t.Errorf("%s/%s: expected an error", name, method)
				}
			}()
		}
	}
}

// stopAfter is a context whose Err turns to context.Canceled on its k-th
// call, so a test can cut a solve at each of its polls in turn without a
// clock.
type stopAfter struct {
	context.Context
	k, calls int
}

func (c *stopAfter) Err() error {
	c.calls++
	if c.calls >= c.k {
		return context.Canceled
	}
	return nil
}

// TestQBDPollsBetweenProducts cuts the matrix-geometric solve at each of
// its context polls in turn. Every cut returns the context error with no
// further poll, and each log-reduction step polls before every one of its
// nine p×p products, factorisations and solves, so a cancelled solve
// waits for one of them, not for a whole step.
func TestQBDPollsBetweenProducts(t *testing.T) {
	m := fastModel()
	mu, _ := m.UniformServiceRate()
	solve := func(ctx context.Context, tol float64) (*QBD, error) {
		proc, _, err := mmpp.FromHAPSimplified(m, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		return SolveQBD(ctx, proc, mu, RMethodLogReduction, tol)
	}
	polls := func(tol float64) (calls, steps int) {
		ctx := &stopAfter{Context: context.Background(), k: math.MaxInt}
		qb, err := solve(ctx, tol)
		if err != nil {
			t.Fatal(err)
		}
		return ctx.calls, qb.LRIter
	}
	n1, s1 := polls(1e-3)
	n2, s2 := polls(1e-14)
	if s2 <= s1 {
		t.Fatalf("%d steps at 1e-14, %d at 1e-3: want more", s2, s1)
	}
	if perStep := (n2 - n1) / (s2 - s1); perStep != 9 || (n2-n1)%(s2-s1) != 0 {
		t.Errorf("%d polls over %d more steps, want 9 per step", n2-n1, s2-s1)
	}
	for k := 1; k <= n2; k++ {
		ctx := &stopAfter{Context: context.Background(), k: k}
		if _, err := solve(ctx, 1e-14); !errors.Is(err, context.Canceled) {
			t.Fatalf("cut at poll %d: err = %v, want context.Canceled", k, err)
		}
		if ctx.calls != k {
			t.Fatalf("cut at poll %d: %d polls, want the solve to stop at the cut", k, ctx.calls)
		}
	}
}

// A matrix-geometric solve whose R iteration cannot bring G's defect below
// Tol still returns its solution, marked not converged, with an error
// wrapping ErrNotConverged (exit 4 in the binaries).
func TestQBDNotConvergedKeepsResult(t *testing.T) {
	m := fastModel()
	res, err := Solution0MG(m, &Options{MaxUsers: 4, MaxApps: 8, Tol: 1e-300})
	if !errors.Is(err, haperr.ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	if res.Converged || !(res.Residual >= 1e-300) {
		t.Errorf("converged %v with residual %g, want not converged", res.Converged, res.Residual)
	}
	if !(res.Delay > 0) || res.States != 45 {
		t.Errorf("delay %v over %d phases, want the solution over 45", res.Delay, res.States)
	}
	if code := haperr.ExitCode(err); code != haperr.ExitNotConverged {
		t.Errorf("exit code %d, want %d", code, haperr.ExitNotConverged)
	}
}
