package hap_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strconv"
	"testing"

	"hap/internal/core"
	"hap/internal/dist"
	"hap/internal/mmpp"
	hnet "hap/internal/net"
	"hap/internal/netgen"
	"hap/internal/sim"
)

// Golden sample-path pins: the exact bits of a mean delay (or network
// sojourn) plus the run's counts, for every simulation entry point the
// benchmark of record drives. TestDeterminismAcrossRuns only compares two
// runs of the same build; these pins catch a refactor that changes a
// sample path at all — a reordered draw, a different stream derivation,
// a tie broken another way — even when the statistics still look right.
//
// The bits hold on linux/amd64 at the default GOAMD64=v1. Targets that
// fuse multiply-adds (arm64, GOAMD64=v3) may round differently; re-pin
// there only after confirming the amd64 pins still pass.
//
// Run them alone with: go test -run TestGoldenSamplePaths .

// golden is one pinned run: the float is compared bit for bit.
type golden struct {
	mean       uint64 // math.Float64bits of the mean delay / sojourn
	halfWidth  uint64 // math.Float64bits of the 95% half-width (replicated runs)
	arrivals   int64  // messages queued (sim) / packets offered (net)
	departures int64  // services completed (sim) / packets delivered (net)
	events     int64
}

func checkGolden(t *testing.T, got, want golden) {
	t.Helper()
	if got != want {
		t.Errorf("sample path moved:\n got  %#v (mean %v, half-width %v)\n want %#v (mean %v, half-width %v)",
			got, math.Float64frombits(got.mean), math.Float64frombits(got.halfWidth),
			want, math.Float64frombits(want.mean), math.Float64frombits(want.halfWidth))
	}
}

func TestGoldenSamplePaths(t *testing.T) {
	p0 := core.PaperParams(20)

	t.Run("RunHAP", func(t *testing.T) {
		r := sim.RunHAP(p0, sim.Config{Horizon: 20000, Seed: 1})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		checkGolden(t, golden{
			mean:       math.Float64bits(r.Meas.MeanDelay()),
			arrivals:   r.Arrivals,
			departures: r.Departures,
			events:     r.Events,
		}, golden{mean: 0x3fb995cc0120c93b, arrivals: 163727, departures: 163727, events: 355223})
	})

	// The other single-queue sources, and an E17-shaped multiplex: a CBR
	// stream beside a HAP source, both served at the shared queue's rate.
	for _, tc := range []struct {
		name string
		run  func() *sim.RunResult
		want golden
	}{
		{"RunPoisson", func() *sim.RunResult {
			return sim.RunPoisson(8.25, 20, sim.Config{Horizon: 20000, Seed: 5})
		}, golden{mean: 0x3fb5babab73a7ead, arrivals: 165165, departures: 165159, events: 330324}},
		{"RunOnOff", func() *sim.RunResult {
			return sim.RunOnOff(core.NewOnOff(0.05, 0.01, 2, 30), sim.Config{Horizon: 20000, Seed: 9})
		}, golden{mean: 0x3faf20728b9c4e88, arrivals: 200623, departures: 200622, events: 404157}},
		{"RunCS", func() *sim.RunResult {
			return sim.RunCS(core.RloginCS(), sim.Config{Horizon: 20000, Seed: 21})
		}, golden{mean: 0x3fa262049098e2e2, arrivals: 26062, departures: 26062, events: 57437}},
		{"MMPP2Source", func() *sim.RunResult {
			m2 := mmpp.MMPP2{R0: 2, R1: 20, Q01: 0.02, Q10: 0.08}
			return sim.Run(sim.MMPP2Source(m2, 40, dist.NewStreams(13).Next()),
				sim.Config{Horizon: 20000, Seed: 13})
		}, golden{mean: 0x3fa622830a9c0885, arrivals: 114542, departures: 114542, events: 230334}},
		{"Multi-CBR+HAP", func() *sim.RunResult {
			const cbrRate, bgRate = 20.0, 8.25
			mu := (cbrRate + bgRate) / 0.70
			hapSrc := sim.NewHAPSource(core.PaperParams(mu), dist.NewStreams(17).Next())
			cbr := sim.NewCBRSource(1/cbrRate, mu, hapSrc.ClassCount())
			return sim.Run(sim.NewMulti(hapSrc, cbr), sim.Config{Horizon: 20000, Seed: 17,
				Measure: sim.MeasureConfig{ClassCount: hapSrc.ClassCount() + 1}})
		}, golden{mean: 0x3fab0241774bc73e, arrivals: 524502, departures: 524500, events: 1070373}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := tc.run()
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			checkGolden(t, golden{
				mean:       math.Float64bits(r.Meas.MeanDelay()),
				arrivals:   r.Arrivals,
				departures: r.Departures,
				events:     r.Events,
			}, tc.want)
		})
	}

	for _, workers := range []int{1, 2} {
		workers := workers
		t.Run("ReplicateRuns/workers="+strconv.Itoa(workers), func(t *testing.T) {
			agg := sim.ReplicateRuns(4, 7, workers, func(rep int, seed int64) *sim.RunResult {
				return sim.RunHAP(p0, sim.Config{Horizon: 5000, Seed: seed})
			})
			if agg.Err != nil {
				t.Fatal(agg.Err)
			}
			checkGolden(t, golden{
				mean:       math.Float64bits(agg.Merged.MeanDelay()),
				halfWidth:  math.Float64bits(agg.HalfWidth),
				arrivals:   agg.Arrivals,
				departures: agg.Departures,
				events:     agg.Events,
			}, golden{mean: 0x3fb87461bafc8634, halfWidth: 0x3f8d8454a9154fbe,
				arrivals: 150133, departures: 150132, events: 326430})
		})
	}

	for _, shards := range []int{1, 2} {
		shards := shards
		t.Run("RunShardedHAP/shards="+strconv.Itoa(shards), func(t *testing.T) {
			r := sim.RunShardedHAP(p0, 8, sim.ShardedConfig{Horizon: 2000, Seed: 3, Shards: shards})
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			checkGolden(t, golden{
				mean:       math.Float64bits(r.Merged.MeanDelay()),
				arrivals:   r.Arrivals,
				departures: r.Departures,
				events:     r.Events,
			}, golden{mean: 0x3fb905b987440f22, arrivals: 114084, departures: 114082, events: 248176})
		})
	}

	const k = 4
	topo := hnet.FanIn("golden", k, 1e5, 50, 0, 0)
	ings := make([]hnet.Ingress, k)
	for i := range ings {
		ings[i] = hnet.HAPIngress(p0, i, k)
	}
	netGolden := func(r *hnet.Result) golden {
		return golden{
			mean:       math.Float64bits(r.E2E.Sojourn.Mean()),
			halfWidth:  math.Float64bits(r.HalfWidth),
			arrivals:   r.E2E.Offered,
			departures: r.E2E.Delivered,
			events:     r.Events,
		}
	}

	t.Run("net.Run/fan-in", func(t *testing.T) {
		r := hnet.Run(topo, ings, hnet.Config{Horizon: 2000, Seed: 11})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		checkGolden(t, netGolden(r), golden{mean: 0x3fdd984f8d52c65f,
			arrivals: 73100, departures: 73094, events: 304489})
	})

	t.Run("net.RunReplicated/fan-in", func(t *testing.T) {
		r := hnet.RunReplicated(topo, ings, hnet.Config{Horizon: 1000, Seed: 13}, 3, 2)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		checkGolden(t, netGolden(r), golden{mean: 0x3fbe51ca70183432, halfWidth: 0x3fbc4c4b701e4e25,
			arrivals: 92719, departures: 92716, events: 386895})
	})

	for _, tc := range []struct {
		seed  int64
		count int
		hash  uint64
	}{
		{1, 33155, 0xfd1467d2925ed051},
		{7919, 51471, 0xff36371b415b8c72},
	} {
		tc := tc
		t.Run("netgen.GenerateHAP/seed="+strconv.FormatInt(tc.seed, 10), func(t *testing.T) {
			s, err := netgen.GenerateHAP(p0, 5000, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var b [8]byte
			for _, a := range s.Arrivals {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(a.T))
				h.Write(b[:])
			}
			if len(s.Arrivals) != tc.count || h.Sum64() != tc.hash {
				t.Errorf("schedule moved: %d arrivals, hash %#x; want %d, %#x",
					len(s.Arrivals), h.Sum64(), tc.count, tc.hash)
			}
		})
	}
}
