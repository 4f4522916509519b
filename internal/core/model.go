// Package core implements the paper's primary contribution: the HAP
// (Hierarchical Arrival Process) traffic model of Lin, Tsai, Huang and
// Gerla (SIGCOMM '93), together with its closed-form analysis.
//
// A HAP is a message arrival process at a network node modulated by three
// levels:
//
//   - users arrive Poisson(Lambda) and remain exp(Mu);
//   - each present user invokes applications of type i at rate Apps[i].Lambda,
//     each active exp(Apps[i].Mu);
//   - each active type-i application emits messages of type j at rate
//     Apps[i].Messages[j].Lambda, served at rate Apps[i].Messages[j].Mu.
//
// All rates are the reciprocals of the means of the corresponding
// distributions, as in the paper. The analysis assumes exponential laws;
// the simulator (package sim) also accepts alternatives.
package core

import (
	"fmt"
	"math"
	"strings"

	"hap/internal/haperr"
)

// MessageType parameterises one message class of an application type.
type MessageType struct {
	// Name is a human label ("interactive", "file-transfer", ...).
	Name string
	// Lambda is the arrival rate of this message type per active
	// application instance (λᵢⱼ).
	Lambda float64
	// Mu is the service rate of this message type at the queue (μᵢⱼ).
	Mu float64
}

// AppType parameterises one application class.
type AppType struct {
	// Name is a human label ("programming", "database", ...).
	Name string
	// Lambda is the invocation rate of this application type per present
	// user (λᵢ).
	Lambda float64
	// Mu is the reciprocal mean lifetime of an application instance (μᵢ).
	Mu float64
	// Messages lists the message types this application generates.
	Messages []MessageType
}

// TotalMessageRate returns Λᵢ = Σⱼ λᵢⱼ, the message rate of one active
// instance of this application type.
func (a AppType) TotalMessageRate() float64 {
	var s float64
	for _, m := range a.Messages {
		s += m.Lambda
	}
	return s
}

// Model is a 3-level HAP.
type Model struct {
	// Name labels the model in reports.
	Name string
	// Lambda is the user arrival rate (λ).
	Lambda float64
	// Mu is the reciprocal mean user holding time (μ).
	Mu float64
	// Apps lists the application types (l = len(Apps)).
	Apps []AppType
}

// Validate checks that every rate is positive and finite and every level
// non-empty. (!(v > 0) rather than v <= 0 so NaN is rejected too.)
func (m *Model) Validate() error {
	var errs []string
	check := func(name string, v float64) {
		if !(v > 0) || math.IsInf(v, 1) {
			errs = append(errs, fmt.Sprintf("%s must be positive and finite (got %v)", name, v))
		}
	}
	check("user Lambda", m.Lambda)
	check("user Mu", m.Mu)
	if len(m.Apps) == 0 {
		errs = append(errs, "model needs at least one application type")
	}
	for i, a := range m.Apps {
		check(fmt.Sprintf("app[%d].Lambda", i), a.Lambda)
		check(fmt.Sprintf("app[%d].Mu", i), a.Mu)
		if len(a.Messages) == 0 {
			errs = append(errs, fmt.Sprintf("app[%d] needs at least one message type", i))
		}
		for j, msg := range a.Messages {
			check(fmt.Sprintf("app[%d].msg[%d].Lambda", i, j), msg.Lambda)
			check(fmt.Sprintf("app[%d].msg[%d].Mu", i, j), msg.Mu)
		}
	}
	if len(errs) > 0 {
		return haperr.Badf("core: invalid model: %s", strings.Join(errs, "; "))
	}
	return nil
}

// NumAppTypes returns l.
func (m *Model) NumAppTypes() int { return len(m.Apps) }

// NumLeaves returns the number of message-type leaves Σᵢ mᵢ in the HAP
// object-class tree; Equation 5 shows that for symmetric parameters the
// mean rate depends on the tree only through this count.
func (m *Model) NumLeaves() int {
	n := 0
	for _, a := range m.Apps {
		n += len(a.Messages)
	}
	return n
}

// Symmetric reports whether all application types share one (λ', μ') and
// all message types one λ” with equal fan-out m — the simplification under
// which the paper reduces the modulating chain to two dimensions (Figure 7).
// When true it also returns those common parameters.
func (m *Model) Symmetric() (ok bool, lambdaApp, muApp, lambdaMsg float64, fanout int) {
	if len(m.Apps) == 0 {
		return false, 0, 0, 0, 0
	}
	a0 := m.Apps[0]
	if len(a0.Messages) == 0 {
		return false, 0, 0, 0, 0
	}
	lambdaApp, muApp = a0.Lambda, a0.Mu
	lambdaMsg = a0.Messages[0].Lambda
	fanout = len(a0.Messages)
	for _, a := range m.Apps {
		if a.Lambda != lambdaApp || a.Mu != muApp || len(a.Messages) != fanout {
			return false, 0, 0, 0, 0
		}
		for _, msg := range a.Messages {
			if msg.Lambda != lambdaMsg {
				return false, 0, 0, 0, 0
			}
		}
	}
	return true, lambdaApp, muApp, lambdaMsg, fanout
}

// UniformServiceRate returns the common message service rate μ” when every
// message type shares one, and false otherwise. The queueing analysis
// requires a uniform service rate (no product form otherwise, as the paper
// notes citing BCMP).
func (m *Model) UniformServiceRate() (float64, bool) {
	var mu float64
	first := true
	for _, a := range m.Apps {
		for _, msg := range a.Messages {
			if first {
				mu, first = msg.Mu, false
			} else if msg.Mu != mu {
				return 0, false
			}
		}
	}
	if first {
		return 0, false
	}
	return mu, true
}

// String renders a compact one-line description.
func (m *Model) String() string {
	name := m.Name
	if name == "" {
		name = "HAP"
	}
	return fmt.Sprintf("%s{λ=%g μ=%g l=%d leaves=%d λ̄=%.4g}",
		name, m.Lambda, m.Mu, len(m.Apps), m.NumLeaves(), m.MeanRate())
}

// NewSymmetric builds the paper's simplified HAP: l identical application
// types, each with fanout identical message types.
//
//	λ, μ            user level
//	λ', μ'          per application type
//	λ'', μ''        per message type
//
// A negative l or fanout counts as 0, which Validate reports.
func NewSymmetric(lambda, mu, lambdaApp, muApp, lambdaMsg, muMsg float64, l, fanout int) *Model {
	apps := make([]AppType, max(l, 0))
	for i := range apps {
		msgs := make([]MessageType, max(fanout, 0))
		for j := range msgs {
			msgs[j] = MessageType{
				Name:   fmt.Sprintf("msg-%d-%d", i+1, j+1),
				Lambda: lambdaMsg,
				Mu:     muMsg,
			}
		}
		apps[i] = AppType{
			Name:     fmt.Sprintf("app-%d", i+1),
			Lambda:   lambdaApp,
			Mu:       muApp,
			Messages: msgs,
		}
	}
	return &Model{Name: "symmetric-HAP", Lambda: lambda, Mu: mu, Apps: apps}
}
