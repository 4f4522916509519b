package fit

import (
	"math"
	"sort"

	"hap/internal/haperr"
	"hap/internal/stats"
)

// TraceConfig parameterises a TraceStats accumulator. Two TraceStats can
// only be merged when their configurations are identical, so replicated
// analyses must share one config (Analyze derives it from the first trace
// and reuses it for the rest).
type TraceConfig struct {
	// Windows is the ladder of IDC window lengths (seconds, ascending).
	// Empty disables count-dispersion tracking.
	Windows []float64
	// GapThreshold separates bursts: an interarrival exceeding it closes
	// the current busy run and records an idle period. <= 0 disables
	// busy/idle tracking.
	GapThreshold float64
	// SlideWindow, when positive, keeps the last SlideWindow seconds of
	// raw timestamps in a ring buffer: Slide(t) evicts older arrivals in
	// O(1) amortised time and WindowTimes hands the retained span to a
	// Refitter — the hapfit -listen re-fit loop. The cumulative moments
	// (Welford, IDC ladder, bursts) remain whole-trace; only the refit
	// feed slides. <= 0 disables retention.
	SlideWindow float64
}

// TraceStats is a single-pass accumulator over arrival timestamps: Welford
// interarrival moments (mean, variance, c²), index-of-dispersion counts
// over the configured window ladder, and busy/idle run-length statistics.
// It is the observational half of the estimation layer — everything the
// moment-matching fitters consume comes out of one of its accessors.
//
// Feed timestamps in nondecreasing order via Add; Analyze sorts for you.
// The zero value is not usable — construct with NewTraceStats.
type TraceStats struct {
	cfg TraceConfig

	n           int64
	first, last float64
	started     bool

	ia stats.Welford // interarrival times

	win []windowAcc

	// Busy/idle runs under cfg.GapThreshold.
	inBurst    bool
	burstStart float64
	burstN     int64
	bursts     stats.Welford // burst durations
	burstSizes stats.Welford // arrivals per burst
	gaps       stats.Welford // idle gap durations

	// Sliding-window retention ring under cfg.SlideWindow (see Slide).
	ring  []float64
	head  int // index of the oldest retained timestamp
	count int // retained timestamps
}

// windowAcc counts arrivals in consecutive bins of width w; completed bins
// feed a Welford whose Var/Mean ratio is the IDC estimate at that window.
type windowAcc struct {
	w      float64
	next   float64 // end of the current bin
	count  float64
	counts stats.Welford
}

// NewTraceStats builds an accumulator. Windows must be positive and
// ascending; a bad ladder returns an ErrBadParameter error because trace
// configurations are frequently user input (hapfit flags).
func NewTraceStats(cfg TraceConfig) (*TraceStats, error) {
	prev := 0.0
	for _, w := range cfg.Windows {
		if !(w > prev) || math.IsInf(w, 1) {
			return nil, haperr.Badf("fit: IDC windows must be positive, finite and ascending (got %v)", cfg.Windows)
		}
		prev = w
	}
	if math.IsNaN(cfg.SlideWindow) || math.IsInf(cfg.SlideWindow, 0) || cfg.SlideWindow < 0 {
		return nil, haperr.Badf("fit: slide window must be a non-negative finite duration (got %v)", cfg.SlideWindow)
	}
	ts := &TraceStats{cfg: cfg, win: make([]windowAcc, len(cfg.Windows))}
	for i, w := range cfg.Windows {
		ts.win[i].w = w
	}
	return ts, nil
}

// Config returns the accumulator's configuration.
func (ts *TraceStats) Config() TraceConfig { return ts.cfg }

// Add ingests one arrival timestamp. Timestamps must be nondecreasing up
// to the same float jitter the rest of the stats layer tolerates
// (stats.TimeEps); a gross regression returns an ErrBadParameter error —
// trace files are untrusted input, so this never panics.
func (ts *TraceStats) Add(t float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return haperr.Badf("fit: non-finite timestamp %v", t)
	}
	if !ts.started {
		ts.started = true
		ts.first, ts.last = t, t
		ts.n = 1
		for i := range ts.win {
			ts.win[i].next = t + ts.win[i].w
			ts.win[i].count = 1
		}
		if ts.cfg.GapThreshold > 0 {
			ts.inBurst = true
			ts.burstStart = t
			ts.burstN = 1
		}
		if ts.cfg.SlideWindow > 0 {
			ts.ringPush(t)
		}
		return nil
	}
	if t < ts.last {
		scale := math.Max(1, math.Max(math.Abs(t), math.Abs(ts.last)))
		if ts.last-t > stats.TimeEps*scale {
			return haperr.Badf("fit: timestamps went backwards (%v -> %v)", ts.last, t)
		}
		t = ts.last // clamp float jitter to monotone
	}
	ia := t - ts.last
	ts.ia.Add(ia)
	ts.n++
	for i := range ts.win {
		wa := &ts.win[i]
		for t >= wa.next {
			wa.counts.Add(wa.count)
			wa.count = 0
			wa.next += wa.w
		}
		wa.count++
	}
	if ts.cfg.GapThreshold > 0 {
		if ia > ts.cfg.GapThreshold {
			ts.bursts.Add(ts.last - ts.burstStart)
			ts.burstSizes.Add(float64(ts.burstN))
			ts.gaps.Add(ia)
			ts.burstStart = t
			ts.burstN = 1
		} else {
			ts.burstN++
		}
	}
	if ts.cfg.SlideWindow > 0 {
		ts.ringPush(t)
	}
	ts.last = t
	return nil
}

// ringPush appends a timestamp to the retention ring, doubling capacity
// when full. Once the ring has grown to the window's peak occupancy the
// push is allocation-free — the TestFitHotPathAllocs contract for Add.
func (ts *TraceStats) ringPush(t float64) {
	if ts.count == len(ts.ring) {
		grown := make([]float64, max(64, 2*len(ts.ring)))
		n := ts.WindowTimes(grown[:0])
		ts.ring, ts.head, ts.count = grown, 0, len(n)
	}
	i := ts.head + ts.count
	if i >= len(ts.ring) {
		i -= len(ts.ring)
	}
	ts.ring[i] = t
	ts.count++
}

// Slide evicts retained timestamps older than t − SlideWindow from the
// ring. Each eviction is O(1) and every arrival is evicted at most once,
// so a slide-per-arrival loop stays O(1) amortised regardless of how
// often it runs. Returns the number of evictions. No-op (0) when
// retention is disabled.
func (ts *TraceStats) Slide(t float64) int {
	if ts.cfg.SlideWindow <= 0 {
		return 0
	}
	cut := t - ts.cfg.SlideWindow
	evicted := 0
	for ts.count > 0 && ts.ring[ts.head] < cut {
		ts.head++
		if ts.head == len(ts.ring) {
			ts.head = 0
		}
		ts.count--
		evicted++
	}
	return evicted
}

// WindowN returns the number of timestamps currently retained.
func (ts *TraceStats) WindowN() int { return ts.count }

// WindowMoments returns the empirical mean arrival rate and interarrival
// c² of the timestamps currently retained by the sliding window — the
// same data a Refit sees, unlike Rate/C2 which describe the whole trace
// since start. Allocation-free: one pass over the ring. Both are 0 when
// fewer than 2 (rate) / 3 (c²) timestamps are retained.
func (ts *TraceStats) WindowMoments() (rate, c2 float64) {
	if ts.count < 2 {
		return 0, 0
	}
	// Welford over the n−1 interarrivals, walking the ring in place.
	i := ts.head
	prev := ts.ring[i]
	var mean, m2 float64
	n := 0.0
	for k := 1; k < ts.count; k++ {
		i++
		if i == len(ts.ring) {
			i = 0
		}
		t := ts.ring[i]
		ia := t - prev
		prev = t
		n++
		d := ia - mean
		mean += d / n
		m2 += d * (ia - mean)
	}
	span := prev - ts.ring[ts.head]
	if span > 0 {
		rate = n / span
	}
	if n >= 2 && mean > 0 {
		c2 = (m2 / (n - 1)) / (mean * mean)
	}
	return rate, c2
}

// WindowTimes appends the retained timestamps (oldest first) to dst and
// returns it — at most two copies, allocation-free when dst has capacity.
func (ts *TraceStats) WindowTimes(dst []float64) []float64 {
	if ts.count == 0 {
		return dst
	}
	end := ts.head + ts.count
	if end <= len(ts.ring) {
		return append(dst, ts.ring[ts.head:end]...)
	}
	dst = append(dst, ts.ring[ts.head:]...)
	return append(dst, ts.ring[:end-len(ts.ring)]...)
}

// Merge folds another accumulator's completed statistics into ts: the
// interarrival Welford, per-window completed-bin counts and busy/idle runs
// combine exactly; each trace's possibly-incomplete final bin and burst are
// dropped, as within a single trace. Configurations must match (same
// window ladder and gap threshold) or an ErrBadParameter error is
// returned. Horizons add; timestamps keep their original clocks. The
// sliding-window retention ring is per-stream (its timestamps live on the
// source's clock) and is not merged.
func (ts *TraceStats) Merge(o *TraceStats) error {
	if len(ts.win) != len(o.win) || ts.cfg.GapThreshold != o.cfg.GapThreshold {
		return haperr.Badf("fit: merging TraceStats with different configurations")
	}
	for i := range ts.win {
		if ts.win[i].w != o.win[i].w {
			return haperr.Badf("fit: merging TraceStats with different IDC windows")
		}
	}
	if !o.started {
		return nil
	}
	ts.ia.Merge(&o.ia)
	ts.n += o.n
	for i := range ts.win {
		ts.win[i].counts.Merge(&o.win[i].counts)
	}
	ts.bursts.Merge(&o.bursts)
	ts.burstSizes.Merge(&o.burstSizes)
	ts.gaps.Merge(&o.gaps)
	if !ts.started {
		ts.started = true
		ts.first, ts.last = o.first, o.last
	} else {
		// Disjoint observation windows observed back to back.
		ts.last += o.last - o.first
	}
	return nil
}

// N returns the number of arrivals ingested.
func (ts *TraceStats) N() int64 { return ts.n }

// Horizon returns the observed span last − first.
func (ts *TraceStats) Horizon() float64 { return ts.last - ts.first }

// Rate returns the empirical mean arrival rate (n−1)/(last−first) — the
// renewal-exact estimator of λ̄ (Equation 4's observable).
func (ts *TraceStats) Rate() float64 {
	if ts.n < 2 || ts.Horizon() <= 0 {
		return 0
	}
	return float64(ts.n-1) / ts.Horizon()
}

// MeanIA returns the mean interarrival time.
func (ts *TraceStats) MeanIA() float64 { return ts.ia.Mean() }

// C2 returns the empirical squared coefficient of variation of the
// interarrival times (Poisson: 1; HAP: > 1).
func (ts *TraceStats) C2() float64 { return ts.ia.SCV() }

// IDCPoint is one empirical index-of-dispersion estimate.
type IDCPoint struct {
	Window float64 // bin width, seconds
	IDC    float64 // Var/Mean of completed-bin counts
	Bins   int64   // completed bins behind the estimate
}

// IDCPoints returns the per-window dispersion estimates with at least
// minBins completed bins (minBins < 2 defaults to 2; the variance of a
// 1-bin estimate is undefined).
func (ts *TraceStats) IDCPoints(minBins int64) []IDCPoint {
	var pts []IDCPoint
	if minBins < 2 {
		minBins = 2
	}
	for i := range ts.win {
		wa := &ts.win[i]
		if wa.counts.N() < minBins || wa.counts.Mean() <= 0 {
			continue
		}
		pts = append(pts, IDCPoint{
			Window: wa.w,
			IDC:    wa.counts.Var() / wa.counts.Mean(),
			Bins:   wa.counts.N(),
		})
	}
	return pts
}

// BurstStats summarises the busy/idle run-length structure under the
// configured gap threshold.
type BurstStats struct {
	Threshold   float64
	Bursts      int64   // completed busy runs
	MeanBurst   float64 // mean busy-run duration
	MeanSize    float64 // mean arrivals per busy run
	MeanGap     float64 // mean idle gap
	GapFraction float64 // Σgaps / horizon — crude OFF fraction
}

// Bursts returns the busy/idle summary (zero value when disabled).
func (ts *TraceStats) Bursts() BurstStats {
	bs := BurstStats{
		Threshold: ts.cfg.GapThreshold,
		Bursts:    ts.bursts.N(),
		MeanBurst: ts.bursts.Mean(),
		MeanSize:  ts.burstSizes.Mean(),
		MeanGap:   ts.gaps.Mean(),
	}
	if h := ts.Horizon(); h > 0 {
		bs.GapFraction = ts.gaps.Mean() * float64(ts.gaps.N()) / h
	}
	return bs
}

// Summary is the exportable snapshot of a TraceStats, the observational
// input every fit report carries.
type Summary struct {
	N       int64
	Horizon float64
	Rate    float64
	MeanIA  float64
	C2      float64
	IDC     []IDCPoint
	Bursts  BurstStats
}

// Summary snapshots the accumulator.
func (ts *TraceStats) Summary() Summary {
	return Summary{
		N:       ts.n,
		Horizon: ts.Horizon(),
		Rate:    ts.Rate(),
		MeanIA:  ts.MeanIA(),
		C2:      ts.C2(),
		IDC:     ts.IDCPoints(0),
		Bursts:  ts.Bursts(),
	}
}

// DefaultWindows builds a geometric IDC window ladder for a trace of the
// given mean interarrival and horizon: from a few interarrivals up to an
// eighth of the horizon (so every window completes at least 8 bins),
// factor-of-√2 spaced, at most 40 windows. Returns nil when the trace is
// too short to support dispersion estimates.
func DefaultWindows(meanIA, horizon float64) []float64 {
	if !(meanIA > 0) || !(horizon > 0) {
		return nil
	}
	lo := 4 * meanIA
	hi := horizon / 8
	if hi <= lo {
		return nil
	}
	var out []float64
	for w := lo; w <= hi && len(out) < 40; w *= math.Sqrt2 {
		out = append(out, w)
	}
	return out
}

// Analyze runs the full single-trace pipeline: sort a copy of the
// timestamps, derive a default configuration (window ladder from
// DefaultWindows, gap threshold at 10 mean interarrivals) for any field
// the caller left zero, and ingest. It needs at least 8 arrivals.
func Analyze(times []float64, cfg TraceConfig) (*TraceStats, error) {
	if len(times) < 8 {
		return nil, haperr.Badf("fit: need at least 8 arrivals, got %d", len(times))
	}
	sorted := append([]float64(nil), times...)
	sort.Float64s(sorted)
	horizon := sorted[len(sorted)-1] - sorted[0]
	if !(horizon > 0) {
		return nil, haperr.Badf("fit: trace spans zero time")
	}
	meanIA := horizon / float64(len(sorted)-1)
	if cfg.Windows == nil {
		cfg.Windows = DefaultWindows(meanIA, horizon)
	}
	if cfg.GapThreshold == 0 {
		cfg.GapThreshold = 10 * meanIA
	}
	ts, err := NewTraceStats(cfg)
	if err != nil {
		return nil, err
	}
	for _, t := range sorted {
		if err := ts.Add(t); err != nil {
			return nil, err
		}
	}
	return ts, nil
}
