package core

import (
	"math"

	"hap/internal/haperr"
	"hap/internal/quad"
)

// TwoLevel is the 2-level HAP: calls (or sources) arrive Poisson(Lambda)
// and remain exp(Mu); while present each emits messages at rate MsgLambda,
// served at rate MsgMu. The paper identifies this with the classical
// ON-OFF traffic models — "the ON-OFF model is a 2-level HAP with only one
// message type" — so this type doubles as the library's ON-OFF model.
type TwoLevel struct {
	Lambda    float64 // call arrival rate
	Mu        float64 // reciprocal mean call holding time
	MsgLambda float64 // message rate per active call (γ)
	MsgMu     float64 // message service rate
}

// NewOnOff constructs a 2-level HAP / ON-OFF superposition model.
func NewOnOff(lambda, mu, msgLambda, msgMu float64) *TwoLevel {
	t := &TwoLevel{Lambda: lambda, Mu: mu, MsgLambda: msgLambda, MsgMu: msgMu}
	if err := t.Validate(); err != nil {
		panic(err)
	}
	return t
}

// Validate checks that every rate is positive and finite.
func (t *TwoLevel) Validate() error {
	for _, p := range []struct {
		n string
		v float64
	}{{"Lambda", t.Lambda}, {"Mu", t.Mu}, {"MsgLambda", t.MsgLambda}, {"MsgMu", t.MsgMu}} {
		if !(p.v > 0) || math.IsInf(p.v, 1) {
			return haperr.Badf("core: TwoLevel.%s must be positive and finite (got %v)", p.n, p.v)
		}
	}
	return nil
}

// Nu returns the mean number of active calls λ/μ.
func (t *TwoLevel) Nu() float64 { return t.Lambda / t.Mu }

// MeanRate returns λ̄ = ν·γ.
func (t *TwoLevel) MeanRate() float64 { return t.Nu() * t.MsgLambda }

// CCDF returns the rate-weighted interarrival complementary CDF
// Ā(t) = s·e^{ν(s−1)} with s = e^{-γt} — the x-conditioned specialisation
// of the 3-level closed form.
func (t *TwoLevel) CCDF(tt float64) float64 {
	if tt < 0 {
		return 1
	}
	s := math.Exp(-t.MsgLambda * tt)
	return s * math.Exp(t.Nu()*(s-1))
}

// PDF returns the interarrival density γs(1+νs)e^{ν(s−1)}, s = e^{-γt}.
func (t *TwoLevel) PDF(tt float64) float64 {
	if tt < 0 {
		return 0
	}
	s := math.Exp(-t.MsgLambda * tt)
	nu := t.Nu()
	return t.MsgLambda * s * (1 + nu*s) * math.Exp(nu*(s-1))
}

// ZeroRateMass returns e^{-ν}, the stationary probability of zero active
// calls.
func (t *TwoLevel) ZeroRateMass() float64 { return math.Exp(-t.Nu()) }

// Mean returns E[T] = (1 − e^{-ν})/λ̄.
func (t *TwoLevel) Mean() float64 { return (1 - t.ZeroRateMass()) / t.MeanRate() }

// SecondMoment returns E[T²] = 2∫ t Ā(t) dt by quadrature. As with
// Interarrival.SecondMoment, the first window is clamped to the mean so a
// many-sparse-calls parameterisation (huge ν, tiny γ) keeps its bulk
// inside the quadrature's view.
func (t *TwoLevel) SecondMoment() float64 {
	scale := math.Min(1/t.MsgLambda, t.Mean())
	return 2 * quad.ToInf(func(x float64) float64 { return x * t.CCDF(x) }, 0, scale, 1e-12)
}

// SCV returns the squared coefficient of variation of the interarrival law.
func (t *TwoLevel) SCV() float64 {
	m := t.Mean()
	return t.SecondMoment()/(m*m) - 1
}

// Model returns the 3-level HAP whose application level carries this
// 2-level process: the paper's "ON-OFF is a 2-level HAP" identity is that
// the 2-level law equals the 3-level closed form *conditioned on exactly
// one user* (Interarrival.CCDFGivenUsers(1, t)): with x ≡ 1 the application
// population is Poisson(λ'/μ') = Poisson(ν) and the conditional mixture
// collapses to Ā(t) = s·e^{ν(s−1)}. The user-level parameters of the
// returned model are placeholders (they do not enter the conditional law).
func (t *TwoLevel) Model() *Model {
	return &Model{
		Name:   "lifted-2level",
		Lambda: 1,
		Mu:     1,
		Apps: []AppType{{
			Name:   "call",
			Lambda: t.Lambda,
			Mu:     t.Mu,
			Messages: []MessageType{{
				Name:   "message",
				Lambda: t.MsgLambda,
				Mu:     t.MsgMu,
			}},
		}},
	}
}
