package core

import (
	"fmt"
	"strings"

	"hap/internal/haperr"
)

// This file implements HAP-CS, the client-server extension of Section 2.2:
// each spontaneously generated message is a *request*; a request of type
// (i,j) triggers a response with probability PResp, and a response triggers
// the next request of the exchange with probability PNext, so an exchange
// is a geometrically distributed ping-pong of requests and responses
// (e.g. an rlogin command loop).

// CSMessageType extends MessageType with the client-server parameters.
type CSMessageType struct {
	Name string
	// Lambda is the spontaneous request rate per active application (λᵢⱼ).
	Lambda float64
	// MuReq is the request service rate (μʳᵢⱼ).
	MuReq float64
	// MuResp is the response service rate (μᵖᵢⱼ).
	MuResp float64
	// PResp is the probability a request triggers a response (pˢᵢⱼ).
	PResp float64
	// PNext is the probability a response triggers the next request (pᑫᵢⱼ).
	PNext float64
}

// ContinuationProbability returns q = PResp·PNext, the probability an
// exchange continues for another round after a request.
func (c CSMessageType) ContinuationProbability() float64 { return c.PResp * c.PNext }

// MessagesPerExchange returns the expected total messages per exchange,
// (1+PResp)/(1-q).
func (c CSMessageType) MessagesPerExchange() float64 {
	return (1 + c.PResp) / (1 - c.ContinuationProbability())
}

// CSAppType is an application type whose messages are request/response
// exchanges.
type CSAppType struct {
	Name     string
	Lambda   float64
	Mu       float64
	Messages []CSMessageType
}

// SpontaneousRate returns Σⱼ λᵢⱼ, the rate of exchange-opening requests of
// one active instance.
func (a CSAppType) SpontaneousRate() float64 {
	var s float64
	for _, m := range a.Messages {
		s += m.Lambda
	}
	return s
}

// EffectiveRate returns the total message rate (requests + responses) of
// one active instance once exchanges are accounted for.
func (a CSAppType) EffectiveRate() float64 {
	var s float64
	for _, m := range a.Messages {
		s += m.Lambda * m.MessagesPerExchange()
	}
	return s
}

// CSModel is a 3-level HAP with client-server interactions (Figure 4).
type CSModel struct {
	Name   string
	Lambda float64
	Mu     float64
	Apps   []CSAppType
}

// Validate checks rates and probabilities, and that exchanges terminate
// (q < 1 for every message type).
func (m *CSModel) Validate() error {
	var errs []string
	check := func(name string, v float64) {
		if !(v > 0) {
			errs = append(errs, fmt.Sprintf("%s must be positive (got %v)", name, v))
		}
	}
	prob := func(name string, v float64) {
		if v < 0 || v > 1 {
			errs = append(errs, fmt.Sprintf("%s must be in [0,1] (got %v)", name, v))
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
			check(fmt.Sprintf("app[%d].msg[%d].MuReq", i, j), msg.MuReq)
			check(fmt.Sprintf("app[%d].msg[%d].MuResp", i, j), msg.MuResp)
			prob(fmt.Sprintf("app[%d].msg[%d].PResp", i, j), msg.PResp)
			prob(fmt.Sprintf("app[%d].msg[%d].PNext", i, j), msg.PNext)
			if msg.ContinuationProbability() >= 1 {
				errs = append(errs, fmt.Sprintf("app[%d].msg[%d]: PResp·PNext must be < 1 or exchanges never end", i, j))
			}
		}
	}
	if len(errs) > 0 {
		return haperr.Badf("core: invalid CS model: %s", strings.Join(errs, "; "))
	}
	return nil
}

// Nu returns λ/μ.
func (m *CSModel) Nu() float64 { return m.Lambda / m.Mu }

// MeanRate returns the effective mean message rate at the queue including
// triggered requests and responses:
//
//	λ̄ = (λ/μ) Σᵢ (λᵢ/μᵢ) Σⱼ λᵢⱼ·(1+pˢ)/(1−pˢpᑫ)
func (m *CSModel) MeanRate() float64 {
	var s float64
	for _, a := range m.Apps {
		s += (a.Lambda / a.Mu) * a.EffectiveRate()
	}
	return m.Nu() * s
}

// MeanSpontaneousRate returns the mean rate of exchange-opening requests
// only (the λ̄ of the underlying plain HAP).
func (m *CSModel) MeanSpontaneousRate() float64 {
	var s float64
	for _, a := range m.Apps {
		s += (a.Lambda / a.Mu) * a.SpontaneousRate()
	}
	return m.Nu() * s
}
