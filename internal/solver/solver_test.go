package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hap/internal/core"
	"hap/internal/gm1"
	"hap/internal/haperr"
	"hap/internal/markov"
	"hap/internal/mmpp"
	"hap/internal/sim"
)

func wantClose(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	ref := math.Max(1e-12, math.Abs(want))
	if math.Abs(got-want)/ref > relTol {
		t.Errorf("%s = %v, want %v (rel tol %v)", name, got, want, relTol)
	}
}

// fastModel mixes orders of magnitude faster than the paper parameters so
// the brute-force solution converges inside a unit test: ν = 2, λ̄ = 12.8,
// ρ = 0.256.
func fastModel() *core.Model {
	return core.NewSymmetric(0.5, 0.25, 0.4, 0.5, 2, 50, 2, 2)
}

func TestQBDPoissonReducesToMM1(t *testing.T) {
	// One-phase modulator = Poisson: the matrix-geometric solution must be
	// the M/M/1 closed form to machine precision.
	chain := markov.NewChain(1)
	proc := mmpp.New(chain, []float64{8.25})
	res, err := SolveMMPPQueue(proc, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "delay", res.Delay, 1/11.75, 1e-8)
	wantClose(t, "sigma", res.Sigma, 8.25/20, 1e-8)
	wantClose(t, "queue", res.QueueLen, 0.4125/0.5875, 1e-8)
}

func TestQBDRSatisfiesCTMCEquation(t *testing.T) {
	m2 := mmpp.MMPP2{R0: 2, R1: 12, Q01: 0.3, Q10: 0.7}
	proc := m2.General()
	qb, err := SolveQBD(context.Background(), proc, 20, RMethodLogReduction, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	// A0 + R·A1 + R²·A2 = 0 with CTMC blocks.
	r := qb.R
	a0 := [][]float64{{m2.R0, 0}, {0, m2.R1}}
	a1 := [][]float64{{-m2.Q01 - m2.R0 - 20, m2.Q01}, {m2.Q10, -m2.Q10 - m2.R1 - 20}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			v := a0[i][j]
			for k := 0; k < 2; k++ {
				v += r.At(i, k) * a1[k][j]
				var r2 float64
				for l := 0; l < 2; l++ {
					r2 += r.At(i, l) * r.At(l, k)
				}
				if k == j {
					v += r2 * 20
				}
			}
			if math.Abs(v) > 1e-7 {
				t.Errorf("CTMC residual[%d][%d] = %v", i, j, v)
			}
		}
	}
}

func TestQBDLogReductionMatchesFunctional(t *testing.T) {
	m2 := mmpp.MMPP2{R0: 1, R1: 9, Q01: 0.2, Q10: 0.5}
	proc := m2.General()
	lr, err := SolveQBD(context.Background(), proc, 15, RMethodLogReduction, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := SolveQBD(context.Background(), m2.General(), 15, RMethodFunctional, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			wantClose(t, "R", lr.R.At(i, j), fn.R.At(i, j), 1e-6)
		}
	}
	wantClose(t, "mean queue", lr.MeanQueue(), fn.MeanQueue(), 1e-6)
}

func TestQBDMatchesSimulationMMPP2(t *testing.T) {
	m2 := mmpp.MMPP2{R0: 2, R1: 20, Q01: 0.02, Q10: 0.08}
	proc := m2.General()
	res, err := SolveMMPPQueue(proc, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	simRes := sim.Run(sim.MMPP2Source(m2, 40, newRng(3)), sim.Config{
		Horizon: 400000, Seed: 3,
		Measure: sim.MeasureConfig{Warmup: 2000},
	})
	wantClose(t, "delay vs sim", res.Delay, simRes.Meas.MeanDelay(), 0.05)
	wantClose(t, "rate vs sim", res.MeanRate, simRes.Meas.ObservedRate(), 0.03)
}

func TestQBDQueueDistSumsToOne(t *testing.T) {
	m2 := mmpp.MMPP2{R0: 1, R1: 6, Q01: 0.1, Q10: 0.3}
	qb, err := SolveQBD(context.Background(), m2.General(), 10, RMethodLogReduction, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	dist := qb.QueueDist(4000)
	var sum, mean float64
	for z, p := range dist {
		if p < -1e-12 {
			t.Fatalf("negative P(z=%d) = %v", z, p)
		}
		sum += p
		mean += float64(z) * p
	}
	wantClose(t, "mass", sum, 1, 1e-6)
	wantClose(t, "mean consistency", mean, qb.MeanQueue(), 1e-4)
}

func TestQBDUnstableRejected(t *testing.T) {
	chain := markov.NewChain(1)
	proc := mmpp.New(chain, []float64{25})
	if _, err := SolveQBD(context.Background(), proc, 20, RMethodLogReduction, 0); err == nil {
		t.Error("unstable queue must be rejected")
	}
}

func TestSolution0MGAgainstSimulationFastModel(t *testing.T) {
	m := fastModel()
	res, err := Solution0MG(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "rate", res.MeanRate, 12.8, 0.01)
	simRes := sim.RunHAP(m, sim.Config{Horizon: 200000, Seed: 8, Measure: sim.MeasureConfig{Warmup: 500}})
	wantClose(t, "delay vs sim", res.Delay, simRes.Meas.MeanDelay(), 0.06)
}

func TestSolution0GaussSeidelMatchesMG(t *testing.T) {
	// The paper's brute-force sweep and the matrix-geometric solution are
	// two routes to the same stationary law (up to z truncation).
	m := fastModel()
	mg, err := Solution0MG(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := Solution0(m, &Options{MaxQueue: 300, Tol: 1e-10, MaxIter: 4000})
	if err != nil {
		t.Fatalf("gs: %v (%v)", err, gs)
	}
	wantClose(t, "delay", gs.Delay, mg.Delay, 0.02)
	wantClose(t, "sigma", gs.Sigma, mg.Sigma, 0.02)
	wantClose(t, "rate", gs.MeanRate, mg.MeanRate, 0.01)
	checkSolveBits(t, gs, 0x3fa8e43858bfd051, 0x3fdab15764e9bba0)
	if gs.Iterations != 1841 {
		t.Errorf("%d sweeps, want 1841", gs.Iterations)
	}
}

func TestSolution0MatchesMGOnAsymmetric(t *testing.T) {
	m := &core.Model{
		Name: "tiny-asym", Lambda: 0.6, Mu: 0.3,
		Apps: []core.AppType{
			{Name: "a", Lambda: 0.5, Mu: 1, Messages: []core.MessageType{{Name: "m", Lambda: 3, Mu: 60}}},
			{Name: "b", Lambda: 0.3, Mu: 0.6, Messages: []core.MessageType{{Name: "n", Lambda: 2, Mu: 60}}},
		},
	}
	mg, err := Solution0MG(m, &Options{MaxUsers: 7, MaxApps: 7})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := Solution0(m, &Options{MaxUsers: 7, MaxApps: 7, MaxQueue: 100, Tol: 5e-10, MaxIter: 3000, DisableWarmStart: true})
	if err != nil {
		t.Fatalf("gs: %v", err)
	}
	wantClose(t, "rate", gs.MeanRate, m.MeanRate(), 0.03)
	wantClose(t, "delay", gs.Delay, mg.Delay, 0.05)
	checkSolveBits(t, gs, 0x3f94651fbed98167, 0x3fc3b9dcbcbeaefb)
	if gs.Iterations != 682 {
		t.Errorf("%d sweeps, want 682", gs.Iterations)
	}
	s1, err := Solution1(m, &Options{MaxUsers: 7, MaxApps: 7})
	if err != nil {
		t.Fatal(err)
	}
	checkSolveBits(t, s1, 0x3f94097b5b79ff00, 0x3fc2f9a946a49ba6)
}

// TestSolutionsAgreeOnRandomModels checks Solutions 0, 0-MG and 1 against
// each other on small models drawn from a fixed seed: one application type
// (a symmetric model) or two (an asymmetric one), each with one message
// type, at a service rate that puts ρ in [0.2, 0.5]. All three solve the
// same modulator, truncated at 4 users and 4 applications (per type):
// Solution 0 also truncates the queue at 100 where 0-MG is exact, and
// Solution 1 drops the interarrival correlation but sees the same mean
// rate.
func TestSolutionsAgreeOnRandomModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	uniform := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	for draw := 0; draw < 16; draw++ {
		m := &core.Model{Name: fmt.Sprintf("draw-%d", draw), Lambda: uniform(0.2, 1), Mu: uniform(0.2, 1)}
		for i := 1 + draw%2; i > 0; i-- {
			m.Apps = append(m.Apps, core.AppType{
				Name: fmt.Sprintf("app-%d", i), Lambda: uniform(0.2, 1), Mu: uniform(0.5, 2),
				Messages: []core.MessageType{{Name: "msg", Lambda: uniform(1, 5)}},
			})
		}
		rho := uniform(0.2, 0.5)
		for i := range m.Apps {
			m.Apps[i].Messages[0].Mu = m.MeanRate() / rho
		}
		opts := &Options{MaxUsers: 4, MaxApps: 4, MaxQueue: 100, DisableFallback: true}
		mg, err := Solution0MG(m, &Options{MaxUsers: 4, MaxApps: 4})
		if err != nil {
			t.Fatalf("%s: 0-MG: %v", m.Name, err)
		}
		// The R iteration stops on G's defect alone, so a converged solve
		// ends below the default 1e-12.
		if !mg.Converged || !(mg.Residual < 1e-12) {
			t.Errorf("%s: 0-MG converged %v with residual %.3g after %d steps, want < 1e-12",
				m.Name, mg.Converged, mg.Residual, mg.Iterations)
		}
		gs, err := Solution0(m, opts)
		if err != nil {
			t.Fatalf("%s: Solution 0: %v", m.Name, err)
		}
		wantClose(t, m.Name+" Solution 0 delay vs 0-MG", gs.Delay, mg.Delay, 0.01)
		s1, err := Solution1(m, opts)
		if errors.Is(err, haperr.ErrUnstable) {
			// Outside the paper's §4.1 regime the rate-weighted mixture
			// can go critical below nominal ρ = 1.
			t.Logf("%s: l=%d ρ=%.3g, Solution 1 unstable: %v", m.Name, len(m.Apps), rho, err)
			continue
		}
		if err != nil {
			t.Fatalf("%s: Solution 1: %v", m.Name, err)
		}
		wantClose(t, m.Name+" Solution 1 mean rate vs 0-MG", s1.MeanRate, mg.MeanRate, 1e-12)
		t.Logf("%s: l=%d ρ=%.3g delay 0 %.6g, 0-MG %.6g, 1 %.6g (σ %.4g); %d sweeps, %d R steps to %.2g",
			m.Name, len(m.Apps), rho, gs.Delay, mg.Delay, s1.Delay, s1.Sigma, gs.Iterations, mg.Iterations, mg.Residual)
	}
}

func TestSolutions1And2AgreeWithinOnePercent(t *testing.T) {
	// Paper Section 4: "Solution 1 and 2 are within 1% difference between
	// each other" when the conditions hold.
	m := core.PaperParams(20)
	s1, err := Solution1(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Solution2(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "delay s1 vs s2", s1.Delay, s2.Delay, 0.01)
	wantClose(t, "sigma s1 vs s2", s1.Sigma, s2.Sigma, 0.01)
	wantClose(t, "rate", s2.MeanRate, 8.25, 1e-9)
	checkSolveBits(t, s1, 0x3fb7cdd0411eb587, 0x3fdd95e7085e147a)
}

func TestHeadlineNumbers(t *testing.T) {
	// Section 4 headline set: ρ ≈ 0.41, σ ≈ 0.47–0.50, T(Sol 2) ≈ 0.1 ≫
	// never — and Solutions 1/2 sit close to the paper's printed 0.1
	// while the correlation-aware solutions land several × higher.
	m := core.PaperParams(20)
	s2, err := Solution2(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "rho", s2.Rho, 0.4125, 1e-6)
	if s2.Sigma < 0.44 || s2.Sigma > 0.52 {
		t.Errorf("sigma = %v, want ≈ 0.47–0.50", s2.Sigma)
	}
	wantClose(t, "delay ≈ 0.1", s2.Delay, 0.1, 0.10)
	pois, err := Poisson(m)
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "poisson delay", pois.Delay, 0.0851, 1e-3)
	if s2.Delay <= pois.Delay {
		t.Error("HAP(Sol 2) must exceed Poisson even without correlation")
	}
}

func TestSolution2BoundedReducesDelay(t *testing.T) {
	m := core.PaperParams(20)
	free, err := Solution2Bounded(m, 60, 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := Solution2Bounded(m, 12, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSolveBits(t, bound, 0x3fb7af9e58f88a4b, 0x3fdd6a07e9699998)
	if bound.Delay >= free.Delay {
		t.Errorf("bounding must reduce delay: %v vs %v", bound.Delay, free.Delay)
	}
	if bound.MeanRate >= free.MeanRate {
		t.Error("bounding must trim the admitted rate")
	}
	// The unbounded case must agree with plain Solution 2.
	s2, _ := Solution2(m, nil)
	wantClose(t, "free vs closed form", free.Delay, s2.Delay, 0.02)
}

func TestFigure19LevelOrdering(t *testing.T) {
	// At equal λ̄, scaling lower levels yields strictly more burstiness:
	// T(message) >= T(application) > T(user), with application and message
	// nearly coincident (the paper's "same effect on burstiness").
	base := core.PaperParams(20)
	for _, f := range []float64{1.05, 1.15} {
		tU := mustDelay(t, base.Scale(core.LevelUser, f))
		tA := mustDelay(t, base.Scale(core.LevelApp, f))
		tM := mustDelay(t, base.Scale(core.LevelMessage, f))
		if !(tM >= tA && tA > tU) {
			t.Errorf("f=%v: ordering violated user=%v app=%v msg=%v", f, tU, tA, tM)
		}
		wantClose(t, "app vs msg near-coincide", tA, tM, 0.01)
	}
}

func TestArrivalVsDepartureScaling(t *testing.T) {
	// Section 5: scaling one level's arrival and departure together keeps
	// λ̄ but shortens bursts — "increasing both by the same factor of 10%
	// decreases the delay by about 1%". This is a correlation-TIME effect:
	// Solution 2's closed form depends only on (ν, aᵢ, Λᵢ) and cannot see
	// it at all, so the exact matrix-geometric solution is required.
	base := fastModel()
	up := base.Scale(core.LevelApp, 1.25).ScaleHolding(core.LevelApp, 1.25)
	wantClose(t, "rate preserved", up.MeanRate(), base.MeanRate(), 1e-9)

	// Solution 2 is provably invariant under this scaling.
	s2a := mustDelay(t, base)
	s2b := mustDelay(t, up)
	wantClose(t, "solution 2 invariant", s2a, s2b, 1e-9)

	// The exact solution feels the shorter bursts.
	e0, err := Solution0MG(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := Solution0MG(up, nil)
	if err != nil {
		t.Fatal(err)
	}
	change := (e1.Delay - e0.Delay) / e0.Delay
	if change == 0 {
		t.Error("exact solution should register the correlation-time change")
	}
	// The paper reports ~1% for a 10% scaling; a 25% scaling on this model
	// should stay a small-single-digit effect either way (which way wins
	// depends on the parameters: shorter bursts lower delay, but faster
	// user-tracking raises Var(y) — see EXPERIMENTS.md E15).
	if math.Abs(change) > 0.10 {
		t.Errorf("delay change %v implausibly large for a 25%% scaling", change)
	}
}

func TestSolverInputValidation(t *testing.T) {
	if _, err := Solution2(core.Figure5Example(), nil); err == nil {
		t.Error("non-uniform service must be rejected by Solution 2")
	}
	if _, err := Solution0(core.Figure5Example(), nil); err == nil {
		t.Error("non-uniform service must be rejected by Solution 0")
	}
	bad := core.PaperParams(5) // ρ = 1.65
	if _, err := Solution2(bad, nil); err == nil {
		t.Error("unstable queue must be rejected")
	}
}

// TestSigmaMethodsAgreeOnHAP checks Solution 2's σ (bisection) against the
// paper's averaging σ-algorithm run on the same transform.
func TestSigmaMethodsAgreeOnHAP(t *testing.T) {
	m := core.PaperParams(20)
	a, err := Solution2(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	ia := m.Interarrival()
	b, err := gm1.Solve(ia.Laplace, ia.MeanRate(), 20, &gm1.Options{Method: gm1.MethodPaper, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "sigma", a.Sigma, b.Sigma, 1e-5)
}

func mustDelay(t *testing.T, m *core.Model) float64 {
	t.Helper()
	r, err := Solution2(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r.Delay
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
