package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"hap/internal/core"
	"hap/internal/dist"
	"hap/internal/haperr"
)

// TestShardedBitIdentical pins the sharding determinism contract: the
// merged measurements (and the aggregate counters) are bit-identical for
// every shard count, because source i's sample path depends only on
// dist.SubSeed(seed, i), never on grouping.
func TestShardedBitIdentical(t *testing.T) {
	m := core.PaperParams(20)
	cfg := ShardedConfig{
		Horizon: 3000,
		Seed:    42,
		Measure: MeasureConfig{Warmup: 200, TrackBusy: true},
	}
	shardCounts := []int{1, 2, 4, runtime.NumCPU()}
	var base *ShardedResult
	for _, shards := range shardCounts {
		cfg.Shards = shards
		res := RunShardedHAP(m, 8, cfg)
		if res.Err != nil {
			t.Fatalf("shards=%d: unexpected error: %v", shards, res.Err)
		}
		if res.Truncated {
			t.Fatalf("shards=%d: unexpected truncation", shards)
		}
		if base == nil {
			base = res
			if res.Arrivals == 0 || res.Departures == 0 {
				t.Fatalf("degenerate run: arrivals=%d departures=%d", res.Arrivals, res.Departures)
			}
			continue
		}
		if res.Arrivals != base.Arrivals || res.Departures != base.Departures || res.Events != base.Events {
			t.Fatalf("shards=%d: counters diverged: (%d,%d,%d) vs (%d,%d,%d)",
				shards, res.Arrivals, res.Departures, res.Events,
				base.Arrivals, base.Departures, base.Events)
		}
		if !reflect.DeepEqual(res.Merged, base.Merged) {
			t.Fatalf("shards=%d: merged measurements diverged from shards=%d", shards, base.Shards)
		}
		for i := range res.PerSource {
			if !reflect.DeepEqual(res.PerSource[i], base.PerSource[i]) {
				t.Fatalf("shards=%d: source %d measurements diverged", shards, i)
			}
		}
	}
}

// TestShardedOnOffBitIdentical covers the 2-level source under the same
// contract.
func TestShardedOnOffBitIdentical(t *testing.T) {
	tl := &core.TwoLevel{Lambda: 0.01, Mu: 0.005, MsgLambda: 0.5, MsgMu: 20}
	cfg := ShardedConfig{Horizon: 4000, Seed: 7}
	cfg.Shards = 1
	a := RunShardedOnOff(tl, 6, cfg)
	cfg.Shards = 3
	b := RunShardedOnOff(tl, 6, cfg)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("unexpected errors: %v, %v", a.Err, b.Err)
	}
	if !reflect.DeepEqual(a.Merged, b.Merged) {
		t.Fatal("ON-OFF merged measurements depend on shard count")
	}
}

// TestStationMatchesDedicatedEngine asserts the station-isolation half of
// the contract directly: a source run on a shared engine (alongside other
// stations) produces bit-identical measurements to the same source run
// alone on its own engine.
func TestStationMatchesDedicatedEngine(t *testing.T) {
	m := core.PaperParams(20)
	build := func(i int) (Source, *rand.Rand) {
		st := dist.NewStreams(dist.SubSeed(42, i))
		arrival, service := st.Next(), st.Next()
		return NewHAPSource(m, arrival), service
	}

	// Shared engine hosting three stations.
	shared := NewEngine(2000)
	sharedMeas := make([]*Measurements, 3)
	for i := 0; i < 3; i++ {
		src, service := build(i)
		sharedMeas[i] = NewMeasurements(MeasureConfig{ClassCount: m.NumLeaves()})
		st := shared.AddStation(service, sharedMeas[i])
		src.Install(shared, st)
	}
	shared.Run()

	// The same three systems, each on a dedicated engine.
	for i := 0; i < 3; i++ {
		src, service := build(i)
		meas := NewMeasurements(MeasureConfig{ClassCount: m.NumLeaves()})
		solo := NewEngine(2000)
		st := solo.AddStation(service, meas)
		src.Install(solo, st)
		solo.Run()
		if !reflect.DeepEqual(meas, sharedMeas[i]) {
			t.Fatalf("station %d: shared-engine measurements differ from dedicated engine", i)
		}
	}
}

// TestShardedValidation covers the error paths: bad horizon and a
// non-positive source count report instead of panicking.
func TestShardedValidation(t *testing.T) {
	if res := RunShardedHAP(core.PaperParams(20), 4, ShardedConfig{Horizon: -1}); !errors.Is(res.Err, haperr.ErrBadParameter) {
		t.Fatalf("bad horizon: got err %v", res.Err)
	}
	res := RunSharded(0, func(*rand.Rand) Source { return nil }, ShardedConfig{Horizon: 10})
	if !errors.Is(res.Err, haperr.ErrBadParameter) {
		t.Fatalf("zero sources: got err %v", res.Err)
	}
}

// TestShardedTruncation: a tiny per-shard event budget truncates the run
// and says so.
func TestShardedTruncation(t *testing.T) {
	res := RunShardedHAP(core.PaperParams(20), 4, ShardedConfig{Horizon: 1e6, Seed: 1, Shards: 2, MaxEvents: 500})
	if !res.Truncated {
		t.Fatal("expected truncation under a 500-event budget")
	}
}

// TestShardedAggregatePendingSize sanity-checks the sizing rationale in
// DESIGN.md: an aggregate of many HAP sources holds at least 4096 pending
// events on a single shard — the large-pending regime BenchmarkSchedHold
// models at 19,500 and mux-128 in hapbench relies on.
func TestShardedAggregatePendingSize(t *testing.T) {
	m := core.PaperParams(20)
	e := NewEngine(100)
	for i := 0; i < 64; i++ {
		st := dist.NewStreams(dist.SubSeed(5, i)).Next()
		station := e.AddStation(dist.NewStreams(dist.SubSeed(5, i)).Next(), nil)
		NewHAPSource(m, st).Install(e, station)
	}
	e.Run()
	// The application population only fills in at runtime, so check the
	// pending set after the run: each source holds ~150 armed clocks at
	// steady state, so 64 sources sit far above 4096.
	if n := e.events.len(); n < 4096 {
		t.Fatalf("aggregate pending set %d below 4096; sizing rationale stale", n)
	}
}
