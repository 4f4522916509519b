// Package obs is the runtime observability layer: allocation-free atomic
// instruments (counters, gauges, timers, rate trackers), a Registry with
// Prometheus-text and JSON exposition, and an optional HTTP endpoint
// serving /metrics and /debug/vars.
//
// The package is dependency-free (standard library only) so every layer of
// the system — the simulation event loop, the iterative solvers, the UDP
// generator — can instrument itself without import cycles or link-time
// weight. Hot-path operations (Counter.Inc, Gauge.Set, Timer.Observe,
// Rate.Mark) are single atomic instructions: zero allocations, no locks,
// safe from any goroutine. Registration and exposition take locks and may
// allocate; they run at init and scrape time, never per event.
//
// Metrics follow the Prometheus naming convention: a `hap_` prefix, an
// `_total` suffix on counters, and base units (seconds, bytes) in gauge
// names. Domain packages declare their instruments as package-level vars
// against the Default registry, so linking a package is what registers its
// metric families — a binary's /metrics page shows exactly the subsystems
// it contains.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is not
// usable directly — obtain counters from a Registry (or NewCounter) so they
// appear in the exposition.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Allocation-free and safe for concurrent use.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotone; this is not
// checked on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer instantaneous value (queue depth, heap size).
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value. Allocation-free.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a float64 instantaneous value (a residual, a measured
// mean), stored as raw bits so Set/Value stay lock- and allocation-free.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores the current value. Allocation-free.
func (g *FloatGauge) Set(x float64) { g.bits.Store(math.Float64bits(x)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Timer accumulates observed durations: count, sum and max, each an atomic
// word. It is exposed as three series (<name>_count, <name>_seconds_sum,
// <name>_seconds_max), mirroring a Prometheus summary without quantiles.
type Timer struct {
	count atomic.Int64
	sumNs atomic.Int64
	maxNs atomic.Int64
}

// Observe records one duration. Allocation-free; the max update uses a CAS
// loop that almost always settles on the first try.
func (t *Timer) Observe(d time.Duration) {
	ns := int64(d)
	t.count.Add(1)
	t.sumNs.Add(ns)
	for {
		old := t.maxNs.Load()
		if ns <= old || t.maxNs.CompareAndSwap(old, ns) {
			return
		}
	}
}

// Count returns the number of observations.
func (t *Timer) Count() int64 { return t.count.Load() }

// SumSeconds returns the total observed time in seconds.
func (t *Timer) SumSeconds() float64 { return float64(t.sumNs.Load()) / 1e9 }

// MaxSeconds returns the largest single observation in seconds.
func (t *Timer) MaxSeconds() float64 { return float64(t.maxNs.Load()) / 1e9 }

// Rate is a lock-free event-rate tracker: Mark counts events on the hot
// path (one atomic add), and each exposition derives a scrape-to-scrape
// rate from the count delta and wall-clock delta. It is exposed as two
// series: <name>_total (the cumulative count) and <name>_per_second (the
// rate over the interval since the previous scrape).
type Rate struct {
	count atomic.Int64
	lastN atomic.Int64
	lastT atomic.Int64
	nowNs func() int64 // injectable for deterministic tests
}

// newRate builds a tracker whose rate window starts now.
func newRate(nowNs func() int64) *Rate {
	r := &Rate{nowNs: nowNs}
	r.lastT.Store(nowNs())
	return r
}

// Mark records n events. Allocation-free and safe for concurrent use.
func (r *Rate) Mark(n int64) { r.count.Add(n) }

// Value returns the cumulative event count.
func (r *Rate) Value() int64 { return r.count.Load() }

// PerSecond returns the event rate since the previous PerSecond call (or
// since creation) and starts a new window. Concurrent scrapes race benignly
// — each sees a consistent-enough delta; the hot path is untouched.
func (r *Rate) PerSecond() float64 {
	now := r.nowNs()
	n := r.count.Load()
	prevT := r.lastT.Swap(now)
	prevN := r.lastN.Swap(n)
	dt := float64(now-prevT) / 1e9
	if dt <= 0 {
		return 0
	}
	return float64(n-prevN) / dt
}
