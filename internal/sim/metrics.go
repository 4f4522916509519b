package sim

import "hap/internal/obs"

// Runtime metrics for the simulation layer. The event loop batches its
// updates at the existing ctxPollMask cadence (every 4096 events), so the
// per-event cost of live observability is zero allocations and a fraction
// of an atomic operation; gauges reflect the most recently sampled engine
// when several run in parallel.
var (
	obsEvents = obs.NewRate("hap_sim_events",
		"Events processed by simulation event loops.")
	obsQueueDepth = obs.NewGauge("hap_sim_queue_depth",
		"Messages in system (all stations) of the most recently sampled engine.")
	// obsSchedPending and obsSchedBuckets describe the future event list,
	// a radix heap over event times (see sched.go): how many events are
	// pending, and how many of its 65 buckets hold them.
	obsSchedPending = obs.NewGauge("hap_sim_sched_pending",
		"Pending future events of the most recently sampled engine.")
	obsSchedBuckets = obs.NewGauge("hap_sim_sched_buckets",
		"Non-empty radix-heap buckets (0-65) of the most recently sampled engine's scheduler.")
	obsStations = obs.NewGauge("hap_sim_stations",
		"Stations (queue/server pairs) hosted by the most recently sampled engine.")
	obsArrivals = obs.NewCounter("hap_sim_arrivals_total",
		"Messages that entered a simulated queue.")
	obsDepartures = obs.NewCounter("hap_sim_departures_total",
		"Completed services across all runs.")
	obsRuns = obs.NewCounter("hap_sim_runs_total",
		"Completed engine runs.")
	obsTruncations = obs.NewCounter("hap_sim_truncations_total",
		"Runs stopped before their horizon by the event budget or cancellation.")
	obsReplications = obs.NewCounter("hap_sim_replications_total",
		"Replications completed inside ReplicateRuns fan-outs.")
	obsMerges = obs.NewCounter("hap_sim_merges_total",
		"Per-replication measurement merges performed by MergeRuns.")
)

// flushObs publishes the event-count delta since the last flush and samples
// the live gauges. Called every ctxPollMask+1 events and at run exit; never
// allocates.
func (e *Engine) flushObs() {
	if d := e.processed - e.obsFlushed; d > 0 {
		obsEvents.Mark(d)
		e.obsFlushed = e.processed
	}
	if d := e.arrivals - e.obsArrFlushed; d > 0 {
		obsArrivals.Add(d)
		e.obsArrFlushed = e.arrivals
	}
	if d := e.departures - e.obsDepFlushed; d > 0 {
		obsDepartures.Add(d)
		e.obsDepFlushed = e.departures
	}
	obsQueueDepth.Set(int64(e.totalQueueLen()))
	obsSchedPending.Set(int64(e.events.len()))
	obsSchedBuckets.Set(int64(e.events.buckets()))
	obsStations.Set(int64(len(e.stations)))
}
