package fit

import (
	"math"

	"hap/internal/core"
	"hap/internal/haperr"
	"hap/internal/par"
	"hap/internal/sim"
)

// This file is the round-trip validation harness the package's tests run:
// simulate a model with known parameters, fit the simulated arrivals, and
// compare. It is what gives a user any reason to trust a fit of a real
// trace — if the fitters cannot recover the generator they were derived
// from, they recover nothing.

// Simulator produces one replication's post-warmup arrival timestamps.
type Simulator func(seed int64, cfg sim.Config) []float64

// SimHAP adapts a (symmetric or not) HAP model to the harness.
func SimHAP(m *core.Model) Simulator {
	return func(seed int64, cfg sim.Config) []float64 {
		cfg.Seed = seed
		return sim.RunHAP(m, cfg).Meas.Arrivals
	}
}

// SimOnOff adapts a 2-level HAP / ON-OFF model to the harness.
func SimOnOff(tl *core.TwoLevel) Simulator {
	return func(seed int64, cfg sim.Config) []float64 {
		cfg.Seed = seed
		return sim.RunOnOff(tl, cfg).Meas.Arrivals
	}
}

// SimPoisson adapts a Poisson source to the harness.
func SimPoisson(rate, muMsg float64) Simulator {
	return func(seed int64, cfg sim.Config) []float64 {
		cfg.Seed = seed
		return sim.RunPoisson(rate, muMsg, cfg).Meas.Arrivals
	}
}

// RoundTripConfig sizes a simulate→fit round trip.
type RoundTripConfig struct {
	// MeanRate is the ground truth's λ̄, used to size the horizon.
	MeanRate float64
	// Arrivals is the target total arrival count across replications.
	Arrivals int64
	// Reps splits the trace into independent replications whose window
	// statistics merge (0 defaults to 4). More replications parallelise
	// but shorten each trace's longest observable window.
	Reps int
	// Workers bounds simulation parallelism (0 = GOMAXPROCS).
	Workers int
	// Seed makes the whole round trip deterministic: replication seeds
	// are derived from it, and the fit itself has no randomness.
	Seed int64
	// Warmup discards this much simulated time per replication (0
	// defaults to 3 user lifetimes worth of the slowest relaxation only
	// when the caller sets it; the harness cannot guess 1/μ).
	Warmup float64
}

// RoundTrip holds the observational output of a simulate→fit round trip.
type RoundTrip struct {
	// Stats merges every replication's accumulator under one shared
	// window ladder — the moment fitters' input.
	Stats *TraceStats
	// Times is the first replication's raw timestamp sequence — the EM
	// fitter's input (EM needs the ordered sequence, which a merge of
	// disjoint clocks cannot provide).
	Times []float64
}

// Simulate runs the generation half of a round trip: Reps seeded
// replications in parallel (deterministic for a fixed RoundTripConfig, in
// any worker count), each analysed under the window ladder derived from
// the first replication, then merged.
func Simulate(simulate Simulator, cfg RoundTripConfig) (*RoundTrip, error) {
	if !(cfg.MeanRate > 0) || math.IsInf(cfg.MeanRate, 1) {
		return nil, haperr.Badf("fit: round trip needs a positive finite mean rate (got %v)", cfg.MeanRate)
	}
	if cfg.Arrivals < 16 {
		return nil, haperr.Badf("fit: round trip needs at least 16 arrivals (got %d)", cfg.Arrivals)
	}
	reps := cfg.Reps
	if reps <= 0 {
		reps = 4
	}
	perRep := float64(cfg.Arrivals) / float64(reps)
	scfg := sim.Config{
		Horizon: cfg.Warmup + perRep/cfg.MeanRate,
		Measure: sim.MeasureConfig{
			Warmup: cfg.Warmup,
			// Headroom above the expected count so a lucky replication
			// is not truncated mid-trace.
			KeepArrivalTimes: int(perRep*1.25) + 64,
		},
	}
	traces := par.Replicate(nil, reps, cfg.Seed, cfg.Workers, func(rep int, seed int64) []float64 {
		return simulate(seed, scfg)
	})
	first, err := Analyze(traces[0], TraceConfig{})
	if err != nil {
		return nil, err
	}
	for _, tr := range traces[1:] {
		ts, err := NewTraceStats(first.Config())
		if err != nil {
			return nil, err
		}
		for _, t := range tr {
			if err := ts.Add(t); err != nil {
				return nil, err
			}
		}
		if err := first.Merge(ts); err != nil {
			return nil, err
		}
	}
	return &RoundTrip{Stats: first, Times: traces[0]}, nil
}

// RelErr returns |got − want| / |want| (Inf for want = 0, got ≠ 0) — the
// tolerance metric every round-trip assertion uses.
func RelErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}
