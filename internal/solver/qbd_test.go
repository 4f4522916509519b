package solver

import (
	"context"
	"fmt"
	"math"
	"testing"

	"hap/internal/core"
	"hap/internal/linalg"
	"hap/internal/mmpp"
)

// smallHAPQBD solves the matrix-geometric queue of the fast model's
// (x, y) modulator at small bounds: 5·9 = 45 phases.
func smallHAPQBD(t *testing.T, method RMethod) (*QBD, *mmpp.MMPP) {
	t.Helper()
	m := fastModel()
	proc, _, err := mmpp.FromHAPSimplified(m, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := m.UniformServiceRate()
	qb, err := SolveQBD(context.Background(), proc, mu, method, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	return qb, proc
}

// TestQBDRMatchesFunctionalHAP checks R = diag(rates)·G/μ from log
// reduction against the functional iteration, which finds R directly.
func TestQBDRMatchesFunctionalHAP(t *testing.T) {
	lr, _ := smallHAPQBD(t, RMethodLogReduction)
	fn, _ := smallHAPQBD(t, RMethodFunctional)
	var worst float64
	for i, v := range lr.R.A {
		worst = math.Max(worst, math.Abs(v-fn.R.A[i]))
	}
	if worst > 1e-10 {
		t.Errorf("max |R_lr − R_functional| = %.3g, want ≤ 1e-10", worst)
	}
}

// TestQBDBoundaryBalance checks π₀ and π₁ from the censored level-0 chain
// against the full boundary equations with CTMC blocks,
//
//	level 0: π₀·(Q − diag(r)) + μ·π₁ = 0
//	level 1: π₀·diag(r) + π₁·(Q − diag(r) − μI + μR) = 0
//
// and the normalisation π₀·1 + π₁(I−R)⁻¹·1 = 1.
func TestQBDBoundaryBalance(t *testing.T) {
	qb, proc := smallHAPQBD(t, RMethodLogReduction)
	p, mu, r := qb.P, qb.Mu, qb.Rates
	// Row-vector products with the modulator generator Q.
	piQ := func(v []float64) []float64 {
		out := make([]float64, p)
		for i := 0; i < p; i++ {
			for _, tr := range proc.Chain.Transitions(i) {
				out[tr.To] += v[i] * tr.Rate
			}
			out[i] -= v[i] * proc.Chain.OutRate(i)
		}
		return out
	}
	pi0Q, pi1Q, pi1R := piQ(qb.Pi0), piQ(qb.Pi1), linalg.VecMat(qb.Pi1, qb.R)
	var worst float64
	for j := 0; j < p; j++ {
		level0 := pi0Q[j] - qb.Pi0[j]*r[j] + mu*qb.Pi1[j]
		level1 := qb.Pi0[j]*r[j] + pi1Q[j] - qb.Pi1[j]*(r[j]+mu) + mu*pi1R[j]
		worst = math.Max(worst, math.Max(math.Abs(level0), math.Abs(level1)))
	}
	if worst > 1e-12 {
		t.Errorf("max boundary balance residual = %.3g, want ≤ 1e-12", worst)
	}
	var mass float64
	for i := 0; i < p; i++ {
		mass += qb.Pi0[i] + qb.SumPi[i]
	}
	if math.Abs(mass-1) > 1e-12 {
		t.Errorf("total mass = %.15g, want 1 within 1e-12", mass)
	}
}

// TestQBDMarginalIsModulatorLaw checks one exact route against another:
// summed over queue levels, the QBD's law is the modulator's stationary
// law, which markov's GTH computes independently.
func TestQBDMarginalIsModulatorLaw(t *testing.T) {
	qb, proc := smallHAPQBD(t, RMethodLogReduction)
	pi, err := proc.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pi {
		if d := math.Abs(qb.Pi0[i] + qb.SumPi[i] - pi[i]); d > 1e-12 {
			t.Errorf("phase %d: Σ_z π_z = %v, modulator law %v", i, qb.Pi0[i]+qb.SumPi[i], pi[i])
		}
	}
}

// TestSolution0MGPaperE1 pins E1's exact delay: the matrix-geometric
// solve at P0 with the (x, y) modulator bounded at 8 users and 48
// applications. Besides the printed figure it pins the bits of the delay
// and σ (see checkSolveBits).
func TestSolution0MGPaperE1(t *testing.T) {
	res, err := Solution0MG(core.PaperParams(20), &Options{MaxUsers: 8, MaxApps: 48})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%.4g", res.Delay); got != "0.09311" || res.States != 441 {
		t.Errorf("delay %.7g over %d phases, want 0.09311 over 441", res.Delay, res.States)
	}
	checkSolveBits(t, res, 0x3fb7d6449558ac00, 0x3fdb7bdd55fccaa8)
}

// TestSolveMMPPQueueGoldenBits pins the bits of a small matrix-geometric
// solve whose 91 phases are not a multiple of four, so every linalg
// kernel call in it also runs the three-element tail and leftover rows.
// These bounds were chosen because their delay and σ move when either the
// vector part or the tail of the kernel rounds differently.
func TestSolveMMPPQueueGoldenBits(t *testing.T) {
	m := fastModel()
	proc, _, err := mmpp.FromHAPSimplified(m, 6, 12)
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := m.UniformServiceRate()
	res, err := SolveMMPPQueue(proc, mu, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.States != 91 {
		t.Fatalf("%d phases, want 91", res.States)
	}
	checkSolveBits(t, res, 0x3fa437befa094331, 0x3fd9c7f2ef9d8894)
}

// checkSolveBits compares a solve's delay and σ bit for bit. Like the
// sample-path pins at the module root, the bits hold on linux/amd64 at the
// default GOAMD64=v1; targets that fuse multiply-adds (arm64,
// GOAMD64=v3) may round differently.
func checkSolveBits(t *testing.T, res Result, delay, sigma uint64) {
	t.Helper()
	if got := math.Float64bits(res.Delay); got != delay {
		t.Errorf("delay bits %#x (%v), want %#x (%v)", got, res.Delay, delay, math.Float64frombits(delay))
	}
	if got := math.Float64bits(res.Sigma); got != sigma {
		t.Errorf("σ bits %#x (%v), want %#x (%v)", got, res.Sigma, sigma, math.Float64frombits(sigma))
	}
}
