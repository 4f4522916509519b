package main

import (
	"fmt"
	"os"
	"time"

	"hap/internal/core"
	"hap/internal/net"
	"hap/internal/sim"
)

// mux-128 runs 128 P0 sources. The fan-in's edge nodes serve at
// muxEdgeMu, so they barely delay a packet, and the bottleneck runs at
// ρ = 128·8.25/1320 ≈ 0.8.
const (
	muxSources      = 128
	muxEdgeMu       = 1e5
	muxBottleneckMu = 1320.0
	// calendarRegime is the pending-event count a 128-source aggregate
	// must stay at or above: well inside the scheduler's calendar side.
	calendarRegime = 10000
)

func runMux(r *run) error {
	var (
		m    *core.Model
		topo *net.Topology
		ings []net.Ingress
	)
	err := r.setUp(func(int) (float64, error) {
		t0 := time.Now()
		m = core.PaperParams(p0Mu)
		topo = net.FanIn("mux-128", muxSources, muxEdgeMu, muxBottleneckMu, 0, 0)
		ings = make([]net.Ingress, muxSources)
		for j := range ings {
			ings[j] = net.HAPIngress(m, j, muxSources)
		}
		// A short pass of both runs pages in the code and grows the
		// allocator's heap before anything is timed.
		warm := sim.RunShardedHAP(m, muxSources, sim.ShardedConfig{Horizon: r.sz.muxWarm, Seed: r.seed, Shards: 1})
		wn := net.Run(topo, ings, net.Config{Horizon: r.sz.muxWarm, Seed: r.seed})
		if warm.Err != nil || wn.Err != nil {
			return 0, fmt.Errorf("mux-128 warm-up: %v, %v", warm.Err, wn.Err)
		}
		return time.Since(t0).Seconds(), nil
	})
	if err != nil {
		return err
	}

	// One operation is a sharded run and a fan-in run; op_ms adds their
	// medians.
	shardedS, err := muxSharded(r, m, 0.45*r.seconds)
	if err != nil {
		return err
	}
	faninS, err := muxFanIn(r, topo, ings, 0.55*r.seconds)
	if err != nil {
		return err
	}
	r.endToEnd("op_ms", 1000*(shardedS+faninS))
	fmt.Printf("mux-128 operation: sharded %.4f s + fan-in %.4f s (median runs)\n", shardedS, faninS)
	r.perLayer("mem.peak_rss_mb", peakRSSMB())
	if r.traced {
		phases := []string{"sharded", "fanin"}
		for _, ph := range phases {
			r.tr.breakdown(os.Stdout, ph, r.overheads[ph])
		}
		r.layerShares(phases...)
	}
	return nil
}

// checkCalendarRegime fails the run unless the phase's median pending
// event count sits on the calendar side.
func checkCalendarRegime(r *run, phase string, pending []float64) float64 {
	med := median(pending)
	r.check(len(pending) > 0 && med >= calendarRegime,
		"mux-128 %s: median pending events %.0f (of %d samples) below %d", phase, med, len(pending), calendarRegime)
	return med
}

// muxSharded runs the 128 sources as independent queues on one engine
// and returns the median run's wall seconds.
func muxSharded(r *run, m *core.Model, budget float64) (float64, error) {
	var (
		msgs  float64 // over the traced runs
		first struct{ events, msgs, mallocs float64 }
	)
	samp := startSampler()
	walls, err := r.phase("sharded", budget, func(i, root int) error {
		c0 := readCountersIf(r.tr.on.Load())
		id := r.tr.begin("sharded", "sim", "sim.RunShardedHAP", root, i)
		res := sim.RunShardedHAP(m, muxSources, sim.ShardedConfig{Horizon: r.sz.muxHorizon, Seed: r.seed, Shards: 1})
		r.tr.end(id)
		r.attempted++
		if res.Err != nil || res.Truncated {
			r.failed++
			return fmt.Errorf("sharded run: err=%v truncated=%v", res.Err, res.Truncated)
		}
		if r.tr.on.Load() {
			if i == 0 {
				c1 := readCounters()
				first.events, first.msgs = float64(res.Events), float64(res.Departures)
				first.mallocs = float64(c1.mallocs - c0.mallocs)
			}
			msgs += float64(res.Departures)
		}
		return nil
	})
	pending := samp.finish()
	if err != nil {
		return 0, err
	}
	med := checkCalendarRegime(r, "sharded", pending)
	if r.traced {
		simLayer(r, "sharded", "sim.RunShardedHAP", msgs, first.events/first.msgs, first.mallocs/first.msgs, med)
	}
	return median(walls), nil
}

// muxFanIn runs the same 128 sources multiplexed through net.FanIn and
// returns the median run's wall seconds.
func muxFanIn(r *run, topo *net.Topology, ings []net.Ingress, budget float64) (float64, error) {
	var (
		pkts  float64 // delivered over the traced runs
		first struct{ events, pkts, mallocs float64 }
	)
	samp := startSampler()
	walls, err := r.phase("fanin", budget, func(i, root int) error {
		c0 := readCountersIf(r.tr.on.Load())
		id := r.tr.begin("fanin", "net", "net.Run", root, i)
		res := net.Run(topo, ings, net.Config{Horizon: r.sz.muxHorizon, Seed: r.seed})
		r.tr.end(id)
		r.attempted++
		if res.Err != nil || res.Truncated {
			r.failed++
			return fmt.Errorf("fan-in run: err=%v truncated=%v", res.Err, res.Truncated)
		}
		e := res.E2E
		// Correctness: every offered packet is delivered, dropped or
		// still in flight.
		r.check(e.Offered == e.Delivered+e.DroppedFull+e.DroppedHops+res.InFlight,
			"fan-in conservation: offered %d != delivered %d + dropped %d + %d + in flight %d",
			e.Offered, e.Delivered, e.DroppedFull, e.DroppedHops, res.InFlight)
		if r.tr.on.Load() {
			if i == 0 {
				c1 := readCounters()
				first.events, first.pkts = float64(res.Events), float64(e.Delivered)
				first.mallocs = float64(c1.mallocs - c0.mallocs)
			}
			pkts += float64(e.Delivered)
		}
		return nil
	})
	pending := samp.finish()
	if err != nil {
		return 0, err
	}
	checkCalendarRegime(r, "fanin", pending)
	if r.traced {
		r.perLayer("net.pkts_per_s", pkts/total(r.tr.perCycle("fanin", "net.Run")))
		r.perLayer("net.events_per_pkt", first.events/first.pkts)
		r.perLayer("net.allocs_per_kpkt", 1000*first.mallocs/first.pkts)
	}
	return median(walls), nil
}
