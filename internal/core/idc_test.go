package core

import (
	"math"
	"testing"
)

func TestIDCBasicShape(t *testing.T) {
	idc, err := PaperParams(20).NewIDC()
	if err != nil {
		t.Fatal(err)
	}
	// IDC(0+) = 1 (locally Poisson), monotone nondecreasing, → Limit.
	if got := idc.At(0); got != 1 {
		t.Errorf("IDC(0) = %v", got)
	}
	prev := 1.0
	for _, x := range []float64{0.01, 0.1, 1, 10, 100, 1000, 1e4, 1e5} {
		v := idc.At(x)
		if v < prev-1e-9 {
			t.Errorf("IDC not monotone at %v: %v < %v", x, v, prev)
		}
		prev = v
	}
	lim := idc.Limit()
	if lim <= 10 {
		t.Errorf("paper-parameter IDC limit %v should be large (long-range modulation)", lim)
	}
	wantClose(t, "IDC(huge) → limit", idc.At(1e8), lim, 0.01)
}

func TestIDCRateVarianceMatchesCascade(t *testing.T) {
	m := PaperParams(20)
	idc, err := m.NewIDC()
	if err != nil {
		t.Fatal(err)
	}
	// Var(R) = Cov_R(0) = c1 + c2 = (mλ'')²·Var(y) with Var(y) = 152.5
	// for the paper set.
	wantClose(t, "var R", idc.c1+idc.c2, 0.09*152.5, 1e-9)
}

func TestIDCMatchesSimulation(t *testing.T) {
	// Use a faster model so one run spans many user lifetimes.
	m := NewSymmetric(0.5, 0.25, 2.5, 1.25, 5, 500, 2, 2) // ν=2, λ̄=40
	idc, err := m.NewIDC()
	if err != nil {
		t.Fatal(err)
	}
	// The empirical check lives in the sim package tests (no import cycle
	// from core); here we verify internal consistency: the limit decomposes
	// into the two time-scale terms.
	sum := 1 + 2*(idc.c1/idc.a1+idc.c2/idc.a2)/idc.lamBar
	wantClose(t, "limit decomposition", idc.Limit(), sum, 1e-12)
}

func TestIDCUserTermDominatesAtPaperParams(t *testing.T) {
	idc, err := PaperParams(20).NewIDC()
	if err != nil {
		t.Fatal(err)
	}
	userTerm := 2 * idc.c2 / idc.a2 / idc.lamBar
	appTerm := 2 * idc.c1 / idc.a1 / idc.lamBar
	if userTerm <= appTerm {
		t.Errorf("user-scale modulation should dominate: user %v vs app %v", userTerm, appTerm)
	}
}

func TestIDCErrors(t *testing.T) {
	if _, err := Figure5Example().NewIDC(); err == nil {
		t.Error("asymmetric model must be rejected")
	}
	degenerate := NewSymmetric(0.01, 0.01, 0.05, 0.01, 1, 100, 2, 2)
	if _, err := degenerate.NewIDC(); err == nil {
		t.Error("μ = μ' must be rejected")
	}
}

func TestIDCKernelStability(t *testing.T) {
	// The small-at series and the closed form must agree at the seam.
	for _, a := range []float64{1e-3, 1, 100} {
		seam := 1e-6 / a
		lo := IDCKernel(a, seam*0.999)
		hi := IDCKernel(a, seam*1.001)
		if math.Abs(hi-lo)/math.Max(hi, 1e-300) > 0.01 {
			t.Errorf("kernel discontinuous at seam for a=%v: %v vs %v", a, lo, hi)
		}
	}
}
