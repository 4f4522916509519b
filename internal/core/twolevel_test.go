package core

import (
	"math"
	"testing"

	"hap/internal/quad"
)

func TestTwoLevelBasics(t *testing.T) {
	on := NewOnOff(0.5, 0.1, 10, 100) // ν = 5, λ̄ = 50
	wantClose(t, "nu", on.Nu(), 5, 1e-12)
	wantClose(t, "rate", on.MeanRate(), 50, 1e-12)
	wantClose(t, "a(0)", on.PDF(0), 60, 1e-12) // γ(1+ν)
	wantClose(t, "zero mass", on.ZeroRateMass(), math.Exp(-5), 1e-12)
}

func TestTwoLevelDensityIntegratesToOne(t *testing.T) {
	on := NewOnOff(0.5, 0.1, 10, 100)
	integral := quad.ToInf(on.PDF, 0, 0.1, 1e-11)
	wantClose(t, "∫a", integral, 1, 1e-6)
}

func TestTwoLevelPDFMatchesCCDFDerivative(t *testing.T) {
	on := NewOnOff(0.3, 0.05, 4, 50)
	for _, x := range []float64{0.01, 0.1, 0.5, 2} {
		h := 1e-6
		d := -(on.CCDF(x+h) - on.CCDF(x-h)) / (2 * h)
		wantClose(t, "pdf", d, on.PDF(x), 1e-4)
	}
}

func TestTwoLevelMeanIdentity(t *testing.T) {
	on := NewOnOff(0.5, 0.1, 10, 100)
	numeric := quad.ToInf(on.CCDF, 0, 0.1, 1e-12)
	wantClose(t, "mean", on.Mean(), numeric, 1e-7)
}

func TestTwoLevelSCVExceedsOne(t *testing.T) {
	// ON-OFF superpositions are burstier than Poisson unless ν → ∞.
	on := NewOnOff(0.2, 0.1, 10, 100) // ν = 2: strongly modulated
	if scv := on.SCV(); scv <= 1 {
		t.Errorf("SCV = %v, want > 1", scv)
	}
	// As ν grows, the superposition approaches Poisson; SCV must shrink.
	heavy := NewOnOff(20, 0.1, 10, 10000) // ν = 200
	if heavy.SCV() >= on.SCV() {
		t.Error("many-source superposition should be closer to Poisson")
	}
}

func TestTwoLevelIsConditionedThreeLevel(t *testing.T) {
	// The paper's identity: the 2-level/ON-OFF law equals the 3-level
	// closed form conditioned on exactly one user, exactly.
	on := NewOnOff(0.5, 0.1, 10, 100)
	lifted := on.Model()
	if err := lifted.Validate(); err != nil {
		t.Fatal(err)
	}
	ia := lifted.Interarrival()
	for _, x := range []float64{0, 0.02, 0.1, 0.4, 2} {
		wantClose(t, "conditional CCDF", ia.CCDFGivenUsers(1, x), on.CCDF(x), 1e-12)
	}
	// Conditioning on more users shortens interarrivals stochastically.
	if ia.CCDFGivenUsers(3, 0.1) >= ia.CCDFGivenUsers(1, 0.1) {
		t.Error("more users must shorten interarrivals")
	}
	defer func() {
		if recover() == nil {
			t.Error("x=0 must panic")
		}
	}()
	ia.CCDFGivenUsers(0, 0.1)
}

func TestTwoLevelValidate(t *testing.T) {
	bad := &TwoLevel{Lambda: 1, Mu: 0, MsgLambda: 1, MsgMu: 1}
	if bad.Validate() == nil {
		t.Error("zero Mu must fail validation")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewOnOff must panic on bad params")
		}
	}()
	NewOnOff(0, 1, 1, 1)
}

func TestCSModelRates(t *testing.T) {
	cs := RloginCS()
	if err := cs.Validate(); err != nil {
		t.Fatal(err)
	}
	// Effective rate exceeds spontaneous rate whenever PResp > 0.
	if cs.MeanRate() <= cs.Requests().MeanRate() {
		t.Error("exchange amplification missing")
	}
	// Per-message-type algebra for the rlogin command loop.
	msg := cs.Apps[0].Messages[0]
	q := 0.95 * 0.6
	wantClose(t, "q", msg.ContinuationProbability(), q, 1e-12)
	wantClose(t, "msgs/exchange", msg.MessagesPerExchange(), 1.95/(1-q), 1e-12)
}

func TestCSValidateCatchesDivergentExchange(t *testing.T) {
	cs := RloginCS()
	cs.Apps[0].Messages[0].PResp = 1
	cs.Apps[0].Messages[0].PNext = 1
	if err := cs.Validate(); err == nil {
		t.Error("q = 1 must be rejected")
	}
	cs2 := RloginCS()
	cs2.Apps[0].Messages[0].PResp = 1.5
	if err := cs2.Validate(); err == nil {
		t.Error("probability > 1 must be rejected")
	}
	empty := &CSModel{Lambda: 1, Mu: 1}
	if err := empty.Validate(); err == nil {
		t.Error("empty app list must be rejected")
	}
}
