package netgen

import (
	"fmt"
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
// real thing, not the closed-form approximation).
func GenerateHAP(m *core.Model, horizon float64, seed int64) (*Schedule, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("netgen: horizon must be positive")
	}
	return generate(sim.NewHAPSource(m, dist.NewStreams(seed).Next()), horizon, seed)
}

// GeneratePoisson produces the equal-rate Poisson baseline schedule.
func GeneratePoisson(rate, horizon float64, seed int64) (*Schedule, error) {
	if !(rate > 0) || math.IsInf(rate, 1) || !(horizon > 0) {
		return nil, haperr.Badf("netgen: rate must be positive and finite and horizon positive (got rate %v, horizon %v)", rate, horizon)
	}
	return generate(sim.NewPoissonSource(rate, 1, dist.NewStreams(seed).Next()), horizon, seed)
}

// GenerateOnOff produces a 2-level/ON-OFF schedule.
func GenerateOnOff(tl *core.TwoLevel, horizon float64, seed int64) (*Schedule, error) {
	if err := tl.Validate(); err != nil {
		return nil, err
	}
	return generate(sim.NewOnOffSource(tl, dist.NewStreams(seed).Next()), horizon, seed)
}

// generate runs src for horizon model seconds through sim.Run and keeps
// the arrival instants. The queue serves at the source's own rate, but the
// instants depend on the source's stream alone, never on service.
func generate(src sim.Source, horizon float64, seed int64) (*Schedule, error) {
	r := sim.Run(src, sim.Config{Horizon: horizon, Seed: seed, Measure: sim.MeasureConfig{KeepArrivalTimes: 1 << 26}})
	if r.Err != nil {
		return nil, r.Err
	}
	s := &Schedule{Arrivals: make([]Arrival, len(r.Meas.Arrivals)), Horizon: horizon}
	for i, t := range r.Meas.Arrivals {
		s.Arrivals[i].T = t
	}
	return s, nil
}

// MeanRate returns arrivals per model second.
func (s *Schedule) MeanRate() float64 {
	if s.Horizon <= 0 {
		return 0
	}
	return float64(len(s.Arrivals)) / s.Horizon
}
