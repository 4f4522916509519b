package core

// This file implements the closed-form first-order quantities of Section
// 3.2.3 ("Solution 2: conditional probability"): the mean message arrival
// rate (Equations 4 and 5) and the mean user/application populations, all
// derived from the M/M/∞ view of the upper levels.

// Nu returns ν = λ/μ, the mean number of users in the system (M/M/∞).
func (m *Model) Nu() float64 { return m.Lambda / m.Mu }

// MeanUsers returns the mean number of user instances x̄ = λ/μ.
func (m *Model) MeanUsers() float64 { return m.Nu() }

// AppLoad returns aᵢ = λᵢ/μᵢ, the mean number of type-i application
// instances per present user.
func (m *Model) AppLoad(i int) float64 { return m.Apps[i].Lambda / m.Apps[i].Mu }

// MeanApps returns the mean total number of application instances
// ȳ = (λ/μ) Σᵢ λᵢ/μᵢ.
func (m *Model) MeanApps() float64 {
	var s float64
	for i := range m.Apps {
		s += m.AppLoad(i)
	}
	return m.Nu() * s
}

// MeanRate returns the mean message arrival rate (Equation 4):
//
//	λ̄ = (λ/μ) Σᵢ (λᵢ/μᵢ) Σⱼ λᵢⱼ
//
// For the Section 4 parameters this is 8.25, matching Solution 0 and the
// simulations.
func (m *Model) MeanRate() float64 {
	var s float64
	for i, a := range m.Apps {
		s += m.AppLoad(i) * a.TotalMessageRate()
	}
	return m.Nu() * s
}

// Utilization returns ρ = λ̄/μ” for the uniform service rate μ”; it
// panics when service rates differ across message types.
func (m *Model) Utilization() float64 {
	mu, ok := m.UniformServiceRate()
	if !ok {
		panic("core: Utilization requires a uniform message service rate")
	}
	return m.MeanRate() / mu
}

// RateSeparation reports the paper's Section 4.1 accuracy conditions: the
// minimum ratio between neighbouring-level arrival and departure rates
// (condition 1a/1b requires ⪆5) computed as
// min(λ'ᵢ/λ, μ'ᵢ/μ, λ”ᵢⱼ/λ'ᵢ, μ”ᵢⱼ/μ'ᵢ) over all i, j.
func (m *Model) RateSeparation() float64 {
	min := func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
	sep := 1e300
	for _, a := range m.Apps {
		sep = min(sep, a.Lambda/m.Lambda)
		sep = min(sep, a.Mu/m.Mu)
		for _, msg := range a.Messages {
			sep = min(sep, msg.Lambda/a.Lambda)
			sep = min(sep, msg.Mu/a.Mu)
		}
	}
	return sep
}

// Scale returns a copy of the model with the chosen level's arrival rate
// multiplied by factor. Level must be one of LevelUser, LevelApp,
// LevelMessage; this is the knob behind Figure 19's level sweeps.
func (m *Model) Scale(level Level, factor float64) *Model {
	out := m.Clone()
	switch level {
	case LevelUser:
		out.Lambda *= factor
	case LevelApp:
		for i := range out.Apps {
			out.Apps[i].Lambda *= factor
		}
	case LevelMessage:
		for i := range out.Apps {
			for j := range out.Apps[i].Messages {
				out.Apps[i].Messages[j].Lambda *= factor
			}
		}
	default:
		panic("core: unknown level")
	}
	return out
}

// ScaleHolding multiplies the chosen level's departure rate (shrinking the
// holding time) by factor.
func (m *Model) ScaleHolding(level Level, factor float64) *Model {
	out := m.Clone()
	switch level {
	case LevelUser:
		out.Mu *= factor
	case LevelApp:
		for i := range out.Apps {
			out.Apps[i].Mu *= factor
		}
	case LevelMessage:
		for i := range out.Apps {
			for j := range out.Apps[i].Messages {
				out.Apps[i].Messages[j].Mu *= factor
			}
		}
	default:
		panic("core: unknown level")
	}
	return out
}

// Level selects one of the three modulating levels.
type Level int

// The three HAP levels.
const (
	LevelUser Level = iota
	LevelApp
	LevelMessage
)

func (l Level) String() string {
	switch l {
	case LevelUser:
		return "user"
	case LevelApp:
		return "application"
	case LevelMessage:
		return "message"
	}
	return "unknown"
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	out := &Model{Name: m.Name, Lambda: m.Lambda, Mu: m.Mu, Apps: make([]AppType, len(m.Apps))}
	for i, a := range m.Apps {
		na := a
		na.Messages = append([]MessageType(nil), a.Messages...)
		out.Apps[i] = na
	}
	return out
}
