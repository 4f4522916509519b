package core

import (
	"fmt"

	"hap/internal/markov"
)

// This file builds the state-mixture view of the interarrival time used by
// the Figure 20 admission-control study: with the user population capped at
// maxUsers and the total application population capped at maxApps, the
// upper levels become truncated-Poisson (Erlang-loss) populations and the
// rate-weighted interarrival law is an exact finite mixture of
// exponentials. With large caps this converges to the Solution-2 closed
// form; with tight caps it quantifies how admission control trims the
// burst tail.

// Mixture is a finite-state interarrival mixture: in branch k the
// interarrival is Exp(Rates[k]) with rate-weighted probability Weights[k].
type Mixture struct {
	// Weights are the rate-weighted state probabilities P̃ (sum to 1).
	Weights []float64
	// Rates are the per-state message arrival rates (all positive).
	Rates []float64
	// MeanRate is λ̄ = Σ π(state)·R(state) over the *unweighted* law.
	MeanRate float64
	// ZeroMass is the unweighted stationary probability of zero-rate
	// states (they cannot host an arrival, so they carry no weight).
	ZeroMass float64
}

// Laplace returns A*(s) of the mixture in closed form.
func (mx *Mixture) Laplace(s float64) float64 {
	var v float64
	for k, w := range mx.Weights {
		v += w * mx.Rates[k] / (mx.Rates[k] + s)
	}
	return v
}

// BoundedMixture computes the interarrival mixture of the symmetric model
// with the user population capped at maxUsers and the total application
// population capped at maxApps (the paper bounds them at 12 and 60 in
// Figure 20, against 60 and 300 for the effectively unbounded case).
//
// The symmetric model is required; the joint law is
// P(x) ⊗ P(y|x) with x ~ TruncPoisson(ν, maxUsers) and
// y|x ~ TruncPoisson(x·l·a', maxApps), and the per-state rate is y·m·λ”.
func (m *Model) BoundedMixture(maxUsers, maxApps int) (*Mixture, error) {
	ok, lambdaApp, muApp, lambdaMsg, fanout := m.Symmetric()
	if !ok {
		return nil, fmt.Errorf("core: BoundedMixture requires a symmetric model")
	}
	if maxUsers < 1 || maxApps < 1 {
		return nil, fmt.Errorf("core: bounds must be >= 1 (got %d users, %d apps)", maxUsers, maxApps)
	}
	nu := m.Nu()
	aPrime := lambdaApp / muApp
	l := float64(len(m.Apps))
	perApp := float64(fanout) * lambdaMsg // message rate of one active app

	px := markov.TruncatedPoisson(nu, maxUsers)
	mx := &Mixture{}
	var meanRate, zero float64
	for x := 0; x <= maxUsers; x++ {
		var py []float64
		if x == 0 {
			py = make([]float64, maxApps+1)
			py[0] = 1
		} else {
			py = markov.TruncatedPoisson(float64(x)*l*aPrime, maxApps)
		}
		for y := 0; y <= maxApps; y++ {
			p := px[x] * py[y]
			if p == 0 {
				continue
			}
			rate := float64(y) * perApp
			if rate == 0 {
				zero += p
				continue
			}
			meanRate += p * rate
			mx.Weights = append(mx.Weights, p*rate)
			mx.Rates = append(mx.Rates, rate)
		}
	}
	if meanRate == 0 {
		return nil, fmt.Errorf("core: bounded mixture has zero arrival rate")
	}
	for k := range mx.Weights {
		mx.Weights[k] /= meanRate
	}
	mx.MeanRate = meanRate
	mx.ZeroMass = zero
	return mx, nil
}
