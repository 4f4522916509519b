package sim

import (
	"context"
	"math"
	"time"

	"hap/internal/core"
	"hap/internal/dist"
	"hap/internal/haperr"
)

// Config drives a single simulation run.
type Config struct {
	// Horizon is the simulated time to cover (same unit as the model's
	// rates — seconds for the paper's parameters).
	Horizon float64
	// Seed makes the run reproducible.
	Seed int64
	// MaxEvents caps the event count (0 = unlimited).
	MaxEvents int64
	// Measure selects the statistics to collect.
	Measure MeasureConfig
	// Ctx, when non-nil, is polled by the event loop; a cancelled context
	// stops the run early, marking it truncated with Err set.
	Ctx context.Context
}

// Validate rejects configurations the engine cannot run, so flag-driven
// callers get an error instead of the engine's invariant panic.
func (cfg Config) Validate() error {
	if !(cfg.Horizon > 0) || math.IsInf(cfg.Horizon, 1) {
		return haperr.Badf("sim: horizon must be positive and finite (got %v)", cfg.Horizon)
	}
	if cfg.MaxEvents < 0 {
		return haperr.Badf("sim: max events must be non-negative (got %d)", cfg.MaxEvents)
	}
	return nil
}

// RunResult is a completed run.
type RunResult struct {
	Meas       *Measurements
	Arrivals   int64
	Departures int64
	Events     int64
	// Truncated reports that the event budget (MaxEvents) or a cancelled
	// context stopped the run before the simulated horizon; measurements
	// cover only the reached span.
	Truncated bool
	// Err is non-nil when the configuration was invalid or the run was
	// cancelled (the context error); measurements cover the span reached
	// before the stop.
	Err     error
	Elapsed time.Duration
	Source  string
}

// Run executes one simulation of the given source on a station of its own,
// whose service stream derives from the seed. An invalid configuration
// returns an empty result with Err set rather than panicking.
func Run(src Source, cfg Config) *RunResult {
	start := time.Now()
	meas := NewMeasurements(cfg.Measure)
	if err := cfg.Validate(); err != nil {
		return &RunResult{Meas: meas, Err: err, Source: src.String()}
	}
	e := NewEngine(cfg.Horizon)
	if cfg.MaxEvents > 0 {
		e.SetMaxEvents(cfg.MaxEvents)
	}
	if cfg.Ctx != nil {
		e.SetContext(cfg.Ctx)
	}
	src.Install(e, e.AddStation(dist.NewStreams(cfg.Seed).Next(), meas))
	e.Run()
	return &RunResult{
		Meas:       meas,
		Arrivals:   e.Arrivals(),
		Departures: e.Departures(),
		Events:     e.Processed(),
		Truncated:  e.Truncated(),
		Err:        e.Err(),
		Elapsed:    time.Since(start),
		Source:     src.String(),
	}
}

// errResult reports an invalid-input run without running anything, so the
// source constructors' invariant panics stay unreachable from here.
func errResult(cfg Config, source string, err error) *RunResult {
	return &RunResult{Meas: NewMeasurements(cfg.Measure), Err: err, Source: source}
}

// RunHAP simulates the model; the source stream is derived from the seed.
// An invalid model returns a result with Err set rather than panicking.
func RunHAP(m *core.Model, cfg Config) *RunResult {
	if err := m.Validate(); err != nil {
		return errResult(cfg, "hap", err)
	}
	streams := dist.NewStreams(cfg.Seed + 1)
	src := NewHAPSource(m, streams.Next())
	if cfg.Measure.ClassCount == 0 {
		cfg.Measure.ClassCount = src.ClassCount()
	}
	return Run(src, cfg)
}

// RunPoisson simulates the equal-rate Poisson baseline with exp(muMsg)
// service. Invalid rates return a result with Err set rather than
// panicking.
func RunPoisson(rate, muMsg float64, cfg Config) *RunResult {
	if !(rate > 0) || math.IsInf(rate, 1) || !(muMsg > 0) || math.IsInf(muMsg, 1) {
		return errResult(cfg, "poisson", haperr.Badf("sim: poisson rates must be positive and finite (rate=%v, μ=%v)", rate, muMsg))
	}
	streams := dist.NewStreams(cfg.Seed + 1)
	src := NewPoissonSource(rate, muMsg, streams.Next())
	return Run(src, cfg)
}

// RunOnOff simulates the 2-level HAP / ON-OFF model. An invalid model
// returns a result with Err set rather than panicking.
func RunOnOff(tl *core.TwoLevel, cfg Config) *RunResult {
	if err := tl.Validate(); err != nil {
		return errResult(cfg, "onoff", err)
	}
	streams := dist.NewStreams(cfg.Seed + 1)
	return Run(NewOnOffSource(tl, streams.Next()), cfg)
}

// RunCS simulates the client-server model. An invalid model returns a
// result with Err set rather than panicking.
func RunCS(m *core.CSModel, cfg Config) *RunResult {
	if err := m.Validate(); err != nil {
		return errResult(cfg, "hap-cs", err)
	}
	streams := dist.NewStreams(cfg.Seed + 1)
	src := NewCSSource(m, streams.Next())
	if cfg.Measure.ClassCount == 0 {
		cfg.Measure.ClassCount = src.ClassCount()
	}
	return Run(src, cfg)
}
