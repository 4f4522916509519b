package sim

import (
	"context"
	"time"

	"hap/internal/haperr"
	"hap/internal/par"
	"hap/internal/stats"
)

// ReplicatedResult aggregates n independent replications of one scenario.
type ReplicatedResult struct {
	// Reps holds the per-replication results in replication order,
	// independent of how many workers ran them.
	Reps []*RunResult
	// Merged combines every replication's measurements (see
	// Measurements.Merge) into a fresh collector; the per-replication
	// results in Reps are left untouched. Per-run traces (queue trace,
	// population trace, running mean) stay on the individual Reps.
	Merged *Measurements
	// Delay summarises the across-replication mean delays; HalfWidth is
	// the ~95% confidence half width of their grand mean.
	Delay     stats.Welford
	HalfWidth float64

	Arrivals   int64
	Departures int64
	Events     int64
	// Truncated reports whether any replication hit its event budget or
	// was cancelled.
	Truncated bool
	// Skipped counts replications never started (only possible when the
	// fan-out context was cancelled before they were handed out).
	Skipped int
	// Err is the first per-replication error in replication order, or the
	// fan-out's context error — see ReplicateRunsContext.
	Err     error
	Elapsed time.Duration
}

// MergeRuns folds per-replication results into one aggregate. Nil entries
// (replications a cancelled fan-out never started, or caller-filtered) are
// counted in Skipped and otherwise ignored. Merged is a fresh collector
// configured like the first replication's, so no RunResult is mutated;
// Elapsed sums the per-replication wall times until ReplicateRuns
// overwrites it with the true wall clock of the fan-out. Err is the first
// non-nil per-replication error in replication order.
func MergeRuns(runs []*RunResult) *ReplicatedResult {
	agg := &ReplicatedResult{Reps: runs}
	for _, r := range runs {
		if r == nil {
			agg.Skipped++
			continue
		}
		if r.Err != nil && agg.Err == nil {
			agg.Err = r.Err
		}
		if agg.Merged == nil {
			agg.Merged = NewMeasurements(r.Meas.cfg)
		}
		agg.Merged.Merge(r.Meas)
		obsMerges.Inc()
		agg.Delay.Add(r.Meas.MeanDelay())
		agg.Arrivals += r.Arrivals
		agg.Departures += r.Departures
		agg.Events += r.Events
		agg.Truncated = agg.Truncated || r.Truncated
		agg.Elapsed += r.Elapsed
	}
	agg.HalfWidth = agg.Delay.HalfWidth95()
	return agg
}

// ReplicateRuns executes n independent replications of run across workers
// (<= 0 selects GOMAXPROCS, 1 runs serially) and merges the results.
// Replication i receives the well-separated seed dist.SubSeed(seedBase, i),
// so the aggregate is bit-identical for every worker count — parallelism
// changes wall-clock time, never the statistics. A non-positive n sets Err
// (see ReplicateRunsContext).
func ReplicateRuns(n int, seedBase int64, workers int, run func(rep int, seed int64) *RunResult) *ReplicatedResult {
	agg, _ := ReplicateRunsContext(nil, n, seedBase, workers, run)
	return agg
}

// ReplicateRunsContext is ReplicateRuns with cooperative cancellation: once
// ctx is done no further replication starts, and replications that watch
// the same context through Config.Ctx stop mid-run. The aggregate covers
// whatever completed (possibly partially); the returned error is the
// context error if the fan-out was cancelled, else the first
// per-replication error in replication order, else nil. A nil ctx never
// cancels. A non-positive n is rejected with haperr.ErrBadParameter and an
// empty Merged collector.
func ReplicateRunsContext(ctx context.Context, n int, seedBase int64, workers int, run func(rep int, seed int64) *RunResult) (*ReplicatedResult, error) {
	if n <= 0 {
		err := haperr.Badf("sim: replication count must be positive (got %d)", n)
		return &ReplicatedResult{Merged: NewMeasurements(MeasureConfig{}), Err: err}, err
	}
	start := time.Now()
	// Count each replication as it completes so a live scrape shows fan-out
	// progress, not just the final merge.
	counted := func(rep int, seed int64) *RunResult {
		r := run(rep, seed)
		obsReplications.Inc()
		return r
	}
	agg := MergeRuns(par.Replicate(ctx, n, seedBase, workers, counted))
	agg.Elapsed = time.Since(start)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			agg.Err = err
			agg.Truncated = true
		}
	}
	return agg, agg.Err
}
