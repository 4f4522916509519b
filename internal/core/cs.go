package core

import (
	"fmt"
	"math"
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

// Requests returns the plain HAP of the exchange-opening requests: message
// type (i,j) emits at λᵢⱼ and is served at μʳᵢⱼ. Responses and the
// requests they trigger continue an exchange on top of this hierarchy.
func (m *CSModel) Requests() *Model {
	apps := make([]AppType, len(m.Apps))
	for i, a := range m.Apps {
		msgs := make([]MessageType, len(a.Messages))
		for j, msg := range a.Messages {
			msgs[j] = MessageType{Name: msg.Name, Lambda: msg.Lambda, Mu: msg.MuReq}
		}
		apps[i] = AppType{Name: a.Name, Lambda: a.Lambda, Mu: a.Mu, Messages: msgs}
	}
	return &Model{Name: m.Name, Lambda: m.Lambda, Mu: m.Mu, Apps: apps}
}

// Validate checks the request hierarchy with Model.Validate (a message's
// Mu there is its MuReq), then each response rate and probability, and
// that exchanges terminate (q < 1 for every message type).
func (m *CSModel) Validate() error {
	if err := m.Requests().Validate(); err != nil {
		return fmt.Errorf("core: CS requests (Mu is MuReq): %w", err)
	}
	var errs []string
	for i, a := range m.Apps {
		for j, msg := range a.Messages {
			name := fmt.Sprintf("app[%d].msg[%d]", i, j)
			if !(msg.MuResp > 0) || math.IsInf(msg.MuResp, 1) {
				errs = append(errs, fmt.Sprintf("%s.MuResp must be positive and finite (got %v)", name, msg.MuResp))
			}
			// !(0 <= p && p <= 1) rather than p < 0 || p > 1, so NaN fails.
			if !(0 <= msg.PResp && msg.PResp <= 1) || !(0 <= msg.PNext && msg.PNext <= 1) {
				errs = append(errs, fmt.Sprintf("%s: PResp and PNext must be in [0,1] (got %v, %v)", name, msg.PResp, msg.PNext))
			} else if msg.ContinuationProbability() >= 1 {
				errs = append(errs, fmt.Sprintf("%s: PResp·PNext must be < 1 or exchanges never end", name))
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
