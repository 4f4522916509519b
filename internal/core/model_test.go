package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"hap/internal/haperr"
)

func wantClose(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if want == 0 {
		if math.Abs(got) > relTol {
			t.Errorf("%s = %v, want ~0", name, got)
		}
		return
	}
	if math.Abs(got-want)/math.Abs(want) > relTol {
		t.Errorf("%s = %v, want %v (rel tol %v)", name, got, want, relTol)
	}
}

func TestPaperMeanRateIs825(t *testing.T) {
	m := PaperParams(20)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Equation 4: λ̄ = (0.0055/0.001)(0.01/0.01)·0.1·5·3 = 8.25.
	wantClose(t, "mean rate", m.MeanRate(), 8.25, 1e-12)
	// Equation 5, its symmetric form: ν·(λ'/μ')·leaves·λ''.
	_, la, ma, lm, _ := m.Symmetric()
	wantClose(t, "symmetric rate", m.Nu()*(la/ma)*float64(m.NumLeaves())*lm, 8.25, 1e-12)
	wantClose(t, "mean users", m.MeanUsers(), 5.5, 1e-12)
	wantClose(t, "mean apps", m.MeanApps(), 27.5, 1e-12)
	wantClose(t, "utilization", m.Utilization(), 8.25/20, 1e-12)
}

func TestSymmetricDetection(t *testing.T) {
	m := PaperParams(20)
	ok, la, ma, lm, fan := m.Symmetric()
	if !ok || la != 0.01 || ma != 0.01 || lm != 0.1 || fan != 3 {
		t.Fatalf("symmetric detection failed: %v %v %v %v %v", ok, la, ma, lm, fan)
	}
	m.Apps[2].Messages[1].Lambda = 0.11
	if ok, _, _, _, _ := m.Symmetric(); ok {
		t.Error("perturbed model still reported symmetric")
	}
	if ok, _, _, _, _ := Figure5Example().Symmetric(); ok {
		t.Error("figure5 must not be symmetric")
	}
}

func TestUniformServiceRate(t *testing.T) {
	m := PaperParams(20)
	mu, ok := m.UniformServiceRate()
	if !ok || mu != 20 {
		t.Fatalf("uniform rate = %v, %v", mu, ok)
	}
	if _, ok := Figure5Example().UniformServiceRate(); ok {
		t.Error("figure5 has heterogeneous service rates")
	}
}

func TestValidationMessages(t *testing.T) {
	m := &Model{Lambda: -1, Mu: 0}
	err := m.Validate()
	if err == nil {
		t.Fatal("expected error")
	}
	for _, frag := range []string{"user Lambda", "user Mu", "application type"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q lacks %q", err, frag)
		}
	}
	// A negative size builds an empty level, which Validate reports.
	for _, tc := range []struct {
		l, m int
		frag string
	}{
		{-1, 3, "application type"},
		{5, -1, "message type"},
	} {
		err := NewSymmetric(1, 1, 1, 1, 1, 1, tc.l, tc.m).Validate()
		if !errors.Is(err, haperr.ErrBadParameter) || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("l=%d m=%d: err = %v, want a bad parameter naming %q", tc.l, tc.m, err, tc.frag)
		}
	}
	if err := Figure5Example().Validate(); err != nil {
		t.Errorf("figure5 should validate: %v", err)
	}
	if err := PaperParams(17).Validate(); err != nil {
		t.Errorf("paper params should validate: %v", err)
	}
}

func TestNumLeaves(t *testing.T) {
	if got := PaperParams(20).NumLeaves(); got != 15 {
		t.Errorf("leaves = %d, want 15", got)
	}
	if got := Figure5Example().NumLeaves(); got != 9 {
		t.Errorf("figure5 leaves = %d, want 9", got)
	}
}

func TestFigure8EquivalentMeanRates(t *testing.T) {
	// Equation 5: merging/splitting branches keeps λ̄ when leaves are kept.
	a, b, c := Figure8A(), Figure8B(), Figure8C()
	want := 4 * 5.5 * 1.0 * 0.1 // 4·(λ/μ)(λ'/μ')λ'' = 2.2
	for _, m := range []*Model{a, b, c} {
		wantClose(t, m.Name+" rate", m.MeanRate(), want, 1e-12)
		if m.NumLeaves() != 4 {
			t.Errorf("%s leaves = %d, want 4", m.Name, m.NumLeaves())
		}
	}
}

func TestFigure8BurstinessOrder(t *testing.T) {
	// Concentrating leaves under fewer application types raises the
	// interarrival SCV: (c) 1×4 > (b) 2×2 > (a) 4×1.
	sa := Figure8A().Interarrival().SCV()
	sb := Figure8B().Interarrival().SCV()
	sc := Figure8C().Interarrival().SCV()
	if !(sc > sb && sb > sa) {
		t.Errorf("SCV order violated: a=%v b=%v c=%v", sa, sb, sc)
	}
	if sa <= 1 {
		t.Errorf("even the flattest HAP should exceed Poisson SCV=1, got %v", sa)
	}
}

func TestScaleLevels(t *testing.T) {
	m := PaperParams(20)
	// Scaling any single level's arrival rate scales λ̄ linearly.
	for _, lvl := range []Level{LevelUser, LevelApp, LevelMessage} {
		up := m.Scale(lvl, 1.3)
		wantClose(t, lvl.String()+" scaled rate", up.MeanRate(), 8.25*1.3, 1e-12)
	}
	// Scaling a level's departure rate divides λ̄.
	down := m.ScaleHolding(LevelApp, 2)
	wantClose(t, "holding-scaled rate", down.MeanRate(), 8.25/2, 1e-12)
	// Original untouched (Clone semantics).
	wantClose(t, "original rate", m.MeanRate(), 8.25, 1e-12)
}

func TestScaleBothKeepsRate(t *testing.T) {
	// Section 5: scaling arrival and departure of one level together keeps
	// λ̄ (burstiness changes, which the solver tests verify).
	m := PaperParams(20)
	both := m.Scale(LevelApp, 1.1).ScaleHolding(LevelApp, 1.1)
	wantClose(t, "rate", both.MeanRate(), 8.25, 1e-12)
}

func TestRateSeparation(t *testing.T) {
	m := PaperParams(20)
	// Weakest link: λ'/λ = 0.01/0.0055 ≈ 1.82.
	wantClose(t, "separation", m.RateSeparation(), 0.01/0.0055, 1e-12)
}

func TestLevelString(t *testing.T) {
	if LevelUser.String() != "user" || LevelApp.String() != "application" ||
		LevelMessage.String() != "message" || Level(42).String() != "unknown" {
		t.Error("level strings wrong")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := PaperParams(20)
	c := m.Clone()
	c.Apps[0].Messages[0].Lambda = 99
	if m.Apps[0].Messages[0].Lambda == 99 {
		t.Error("clone shares message slice")
	}
}

func TestStringRendersRate(t *testing.T) {
	s := PaperParams(20).String()
	if !strings.Contains(s, "8.25") {
		t.Errorf("String() = %q, want the mean rate in it", s)
	}
	if !strings.Contains((&Model{Apps: []AppType{{Lambda: 1, Mu: 1, Messages: []MessageType{{Lambda: 1, Mu: 1}}}}, Lambda: 1, Mu: 1}).String(), "HAP") {
		t.Error("unnamed model should print HAP")
	}
}
