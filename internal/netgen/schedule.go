package netgen

import (
	"math"

	"hap/internal/core"
	"hap/internal/dist"
	"hap/internal/haperr"
	"hap/internal/sim"
)

// Arrival is one scheduled packet emission.
type Arrival struct {
	T     float64 // model time, seconds from schedule start
	Class int
}

// Schedule is a pre-generated arrival timeline.
type Schedule struct {
	Arrivals []Arrival
	Horizon  float64
}

// GenerateHAP produces a HAP arrival schedule of the given model-time
// horizon using the simulator's source machinery (so correlations are the
// real thing, not the closed-form approximation). Each arrival's class is
// its message type's leaf index.
func GenerateHAP(m *core.Model, horizon float64, seed int64) (*Schedule, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return generate(sim.NewHAPSource(m, dist.NewStreams(seed).Next()), m.MeanRate(), horizon)
}

// GeneratePoisson produces the equal-rate Poisson baseline schedule.
func GeneratePoisson(rate, horizon float64, seed int64) (*Schedule, error) {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return nil, haperr.Badf("netgen: rate must be positive and finite (got %v)", rate)
	}
	return generate(sim.NewPoissonSource(rate, 1, dist.NewStreams(seed).Next()), rate, horizon)
}

// GenerateOnOff produces a 2-level/ON-OFF schedule.
func GenerateOnOff(tl *core.TwoLevel, horizon float64, seed int64) (*Schedule, error) {
	if err := tl.Validate(); err != nil {
		return nil, err
	}
	return generate(sim.NewOnOffSource(tl, dist.NewStreams(seed).Next()), tl.MeanRate(), horizon)
}

// generate runs src for horizon model seconds and records each arrival's
// instant and class. The source feeds an alias station (see
// sim.Engine.SetIngressHook), so nothing is queued or served, and the
// schedule depends on the source's stream alone. The schedule starts with
// room for 10% over the source's mean count, rate·horizon, up to 2²²
// arrivals; past that it grows.
func generate(src sim.Source, rate, horizon float64) (*Schedule, error) {
	if !(horizon > 0) || math.IsInf(horizon, 1) {
		return nil, haperr.Badf("netgen: horizon must be positive and finite (got %v)", horizon)
	}
	s := &Schedule{Arrivals: make([]Arrival, 0, int(min(1.1*rate*horizon, 1<<22))), Horizon: horizon}
	e := sim.NewEngine(horizon)
	alias := e.AddStation(nil, nil)
	e.SetIngressHook(alias, func(class int) {
		s.Arrivals = append(s.Arrivals, Arrival{T: e.Now(), Class: class})
	})
	src.Install(e, alias)
	e.Run()
	return s, nil
}

// MeanRate returns arrivals per model second.
func (s *Schedule) MeanRate() float64 {
	if s.Horizon <= 0 {
		return 0
	}
	return float64(len(s.Arrivals)) / s.Horizon
}
