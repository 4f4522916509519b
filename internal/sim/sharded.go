package sim

import (
	"context"
	"math"
	"math/rand"
	"time"

	"hap/internal/core"
	"hap/internal/dist"
	"hap/internal/haperr"
	"hap/internal/par"
)

// Sharded aggregate runs: the multi-core path to the paper's
// many-source experiments and the ROADMAP's millions-of-users target.
//
// The workload is n independent source/queue systems ("stations"), the
// superposition view of an aggregate: each source feeds its own
// single-server queue with its own service stream. Sources are
// partitioned across per-core engines (shards); each shard runs one event
// loop over all its stations, so the scheduler, clock, and obs batching
// are shared per core rather than paid per source.
//
// Determinism contract: source i's arrival and service streams derive
// from dist.SubSeed(cfg.Seed, i) — a function of the source index only —
// and a station's sample path depends only on its own streams, never on
// which other stations share an engine. Shard count therefore changes
// wall-clock time, never a single sample; the merged measurements are
// bit-identical for any Shards value (asserted by TestShardedBitIdentical).
// The one exception is an exhausted MaxEvents budget: budgets are
// enforced per shard, so *which* events a truncated run managed to
// process depends on the grouping. Truncated sharded results are
// reported as such and carry no cross-shard-count identity guarantee.

// ShardedConfig drives a sharded aggregate run.
type ShardedConfig struct {
	// Horizon is the simulated time each source covers.
	Horizon float64
	// Seed roots the per-source streams: source i draws from
	// dist.SubSeed(Seed, i) regardless of sharding.
	Seed int64
	// Shards is the number of engines / event loops (<= 0 selects
	// GOMAXPROCS, clamped to the source count).
	Shards int
	// MaxEvents caps the events processed per shard (0 = unlimited). A
	// hit budget truncates that shard; see the determinism note above.
	MaxEvents int64
	// Measure configures every per-source collector. Trace options apply
	// per source and do not merge (see Measurements.Merge).
	Measure MeasureConfig
	// Ctx, when non-nil, cancels all shards cooperatively.
	Ctx context.Context
}

// Validate rejects configurations the shards cannot run.
func (cfg ShardedConfig) Validate() error {
	if !(cfg.Horizon > 0) || math.IsInf(cfg.Horizon, 1) {
		return haperr.Badf("sim: horizon must be positive and finite (got %v)", cfg.Horizon)
	}
	if cfg.MaxEvents < 0 {
		return haperr.Badf("sim: max events must be non-negative (got %d)", cfg.MaxEvents)
	}
	return nil
}

// ShardedResult is a completed sharded aggregate run.
type ShardedResult struct {
	// Merged combines every source's measurements in source index order,
	// so it is independent of the shard count and of scheduling.
	Merged *Measurements
	// PerSource holds each source's own measurements, indexed by source.
	PerSource []*Measurements

	Sources    int
	Shards     int
	Arrivals   int64
	Departures int64
	Events     int64
	// Truncated reports that some shard hit its event budget or was
	// cancelled; see the determinism note on ShardedConfig.MaxEvents.
	Truncated bool
	Err       error
	Elapsed   time.Duration
	Source    string
}

// EventsPerSec returns the aggregate processing rate across all shards.
func (r *ShardedResult) EventsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Events) / r.Elapsed.Seconds()
}

// shardState is one engine plus the bookkeeping to merge its stations
// back in global source order.
type shardState struct {
	eng     *Engine
	sources []int   // global source indices hosted here, in order
	sts     []int32 // station index per hosted source
}

// RunSharded simulates n independent source/queue systems, sharded across
// per-core engines. mk constructs each source from its own arrival
// stream; its station serves from a second, dedicated stream. mk is
// called once per source in index order during setup, then the shards
// run in parallel.
func RunSharded(n int, mk func(arrival *rand.Rand) Source, cfg ShardedConfig) *ShardedResult {
	start := time.Now()
	res := &ShardedResult{Sources: n, Source: "sharded"}
	if err := cfg.Validate(); err != nil {
		res.Err = err
		res.Merged = NewMeasurements(cfg.Measure)
		return res
	}
	if n <= 0 {
		res.Err = haperr.Badf("sim: sharded run needs at least one source (got %d)", n)
		res.Merged = NewMeasurements(cfg.Measure)
		return res
	}
	shards := par.Workers(cfg.Shards, n)
	res.Shards = shards

	res.PerSource = make([]*Measurements, n)
	states := make([]shardState, shards)
	for s := range states {
		states[s].eng = NewEngine(cfg.Horizon)
		if cfg.MaxEvents > 0 {
			states[s].eng.SetMaxEvents(cfg.MaxEvents)
		}
		if cfg.Ctx != nil {
			states[s].eng.SetContext(cfg.Ctx)
		}
	}
	// Round-robin partition, installed in global source order so a
	// source's install-time draws depend only on its own streams.
	for i := 0; i < n; i++ {
		st := dist.NewStreams(dist.SubSeed(cfg.Seed, i))
		arrival, service := st.Next(), st.Next()
		src := mk(arrival)
		meas := NewMeasurements(cfg.Measure)
		res.PerSource[i] = meas
		sh := &states[i%shards]
		station := sh.eng.AddStation(service, meas)
		src.Install(sh.eng, station)
		sh.sources = append(sh.sources, i)
		sh.sts = append(sh.sts, station)
	}

	par.Map(nil, shards, shards, func(s int) struct{} {
		states[s].eng.Run()
		return struct{}{}
	})

	res.Merged = NewMeasurements(cfg.Measure)
	for i := 0; i < n; i++ {
		res.Merged.Merge(res.PerSource[i])
		obsMerges.Inc()
	}
	for s := range states {
		e := states[s].eng
		res.Arrivals += e.Arrivals()
		res.Departures += e.Departures()
		res.Events += e.Processed()
		res.Truncated = res.Truncated || e.Truncated()
		if e.Err() != nil && res.Err == nil {
			res.Err = e.Err()
		}
	}
	res.Elapsed = time.Since(start)
	return res
}

// RunShardedHAP simulates n independent HAP sources of the same model,
// sharded across cores. An invalid model returns a result with Err set
// rather than panicking.
func RunShardedHAP(m *core.Model, n int, cfg ShardedConfig) *ShardedResult {
	if err := m.Validate(); err != nil {
		return &ShardedResult{Sources: n, Source: "sharded-hap", Err: err, Merged: NewMeasurements(cfg.Measure)}
	}
	if cfg.Measure.ClassCount == 0 {
		cfg.Measure.ClassCount = m.NumLeaves()
	}
	res := RunSharded(n, func(arrival *rand.Rand) Source {
		return NewHAPSource(m, arrival)
	}, cfg)
	res.Source = "sharded-hap"
	return res
}

// RunShardedOnOff simulates n independent 2-level ON-OFF sources of the
// same model, sharded across cores.
func RunShardedOnOff(tl *core.TwoLevel, n int, cfg ShardedConfig) *ShardedResult {
	if err := tl.Validate(); err != nil {
		return &ShardedResult{Sources: n, Source: "sharded-onoff", Err: err, Merged: NewMeasurements(cfg.Measure)}
	}
	res := RunSharded(n, func(arrival *rand.Rand) Source {
		return NewOnOffSource(tl, arrival)
	}, cfg)
	res.Source = "sharded-onoff"
	return res
}
