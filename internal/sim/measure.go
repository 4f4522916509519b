package sim

import (
	"hap/internal/stats"
)

// MeasureConfig selects which statistics a run collects. Everything is
// off-by-default except delay and queue-length means; traces cost memory
// proportional to horizon / interval.
type MeasureConfig struct {
	// Warmup discards observations before this simulated time.
	Warmup float64
	// TrackBusy enables the busy-period ("mountain") tracker.
	TrackBusy bool
	// KeepBusyPeriods retains individual busy periods (needed to locate
	// the peak period of Figures 15–17). MaxBusyRetained caps memory.
	KeepBusyPeriods bool
	MaxBusyRetained int
	// QueueTraceInterval samples the queue length every interval (0 = off).
	QueueTraceInterval float64
	// PopTraceInterval samples user/app populations every interval (0 = off).
	PopTraceInterval float64
	// RunningMeanEvery checkpoints the running mean delay every n
	// departures (0 = off) — Figure 13's convergence trace.
	RunningMeanEvery int64
	// KeepArrivalTimes retains up to this many message arrival instants
	// (for IDC and interarrival histograms; 0 = off).
	KeepArrivalTimes int
	// DelayHistogram, when non-zero, records delays in [0, DelayHistMax)
	// with DelayHistBins bins.
	DelayHistBins int
	DelayHistMax  float64
	// ClassCount, when > 0, keeps a per-class delay Welford.
	ClassCount int
}

// TracePoint is one (time, value) sample of a trace.
type TracePoint struct {
	T float64
	V float64
}

// PopPoint is one population sample.
type PopPoint struct {
	T     float64
	Users int
	Apps  int
}

// Measurements accumulates run statistics. Construct with NewMeasurements.
type Measurements struct {
	cfg MeasureConfig

	Delays   stats.Welford
	ByClass  []stats.Welford
	Queue    stats.TimeWeighted
	Busy     stats.BusyTracker
	Running  *stats.RunningMean
	DelayH   *stats.Histogram
	Arrivals []float64

	QueueTrace []TracePoint
	PopTrace   []PopPoint

	// Truncated reports that the run filling this collector stopped before
	// its horizon (event budget or cancellation), so the measurement window
	// covers less simulated time than configured. Set by the engine when
	// the run finishes.
	Truncated bool
	// TruncatedBy, on a merge target, records the Truncated flag of every
	// collector merged in, in merge order — one entry per merged station or
	// replication. A bare OR of the flags (Truncated) cannot say *which*
	// station hit its budget when the merged collectors cover disjoint
	// measurement windows; this slice attributes the truncation.
	TruncatedBy []bool

	nextQueueSample float64
	nextPopSample   float64
	warm            bool
	lastQueueLen    int
}

// NewMeasurements builds a collector for the given configuration.
func NewMeasurements(cfg MeasureConfig) *Measurements {
	m := &Measurements{cfg: cfg}
	if cfg.RunningMeanEvery > 0 {
		m.Running = stats.NewRunningMean(cfg.RunningMeanEvery)
	}
	if cfg.DelayHistBins > 0 && cfg.DelayHistMax > 0 {
		m.DelayH = stats.NewHistogram(0, cfg.DelayHistMax, cfg.DelayHistBins)
	}
	if cfg.ClassCount > 0 {
		m.ByClass = make([]stats.Welford, cfg.ClassCount)
	}
	m.Busy.Keep = cfg.KeepBusyPeriods
	m.Busy.MaxRetained = cfg.MaxBusyRetained
	return m
}

func (m *Measurements) start(t float64, qlen, users, apps int) {
	m.nextQueueSample = t
	m.nextPopSample = t
	m.lastQueueLen = qlen
	if t >= m.cfg.Warmup {
		m.beginMeasuring(t, qlen)
	}
}

func (m *Measurements) beginMeasuring(t float64, qlen int) {
	m.warm = true
	m.Queue.Start(t, float64(qlen))
	if m.cfg.TrackBusy {
		m.Busy.Observe(t, qlen)
	}
}

func (m *Measurements) maybeWarm(t float64, qlen int) bool {
	if m.warm {
		return true
	}
	if t >= m.cfg.Warmup {
		m.beginMeasuring(t, qlen)
		return true
	}
	return false
}

func (m *Measurements) onArrival(t float64, qlen, class int) {
	m.lastQueueLen = qlen
	if !m.maybeWarm(t, qlen) {
		return
	}
	m.Queue.Update(t, float64(qlen))
	if m.cfg.TrackBusy {
		m.Busy.Observe(t, qlen)
	}
	if m.cfg.KeepArrivalTimes > 0 && len(m.Arrivals) < m.cfg.KeepArrivalTimes {
		m.Arrivals = append(m.Arrivals, t)
	}
	m.sampleTraces(t)
}

func (m *Measurements) onDeparture(t, delay float64, qlen, class int) {
	m.lastQueueLen = qlen
	if !m.maybeWarm(t, qlen) {
		return
	}
	m.Queue.Update(t, float64(qlen))
	if m.cfg.TrackBusy {
		m.Busy.Observe(t, qlen)
	}
	m.Delays.Add(delay)
	if m.ByClass != nil && class >= 0 && class < len(m.ByClass) {
		m.ByClass[class].Add(delay)
	}
	if m.Running != nil {
		m.Running.Add(delay)
	}
	if m.DelayH != nil {
		m.DelayH.Add(delay)
	}
	m.sampleTraces(t)
}

func (m *Measurements) onPopulation(t float64, users, apps int) {
	if m.cfg.PopTraceInterval <= 0 || t < m.cfg.Warmup {
		return
	}
	if t >= m.nextPopSample {
		m.PopTrace = append(m.PopTrace, PopPoint{T: t, Users: users, Apps: apps})
		for m.nextPopSample <= t {
			m.nextPopSample += m.cfg.PopTraceInterval
		}
	}
}

func (m *Measurements) sampleTraces(t float64) {
	if m.cfg.QueueTraceInterval <= 0 {
		return
	}
	if t >= m.nextQueueSample {
		m.QueueTrace = append(m.QueueTrace, TracePoint{T: t, V: float64(m.lastQueueLen)})
		for m.nextQueueSample <= t {
			m.nextQueueSample += m.cfg.QueueTraceInterval
		}
	}
}

func (m *Measurements) finish(t float64, qlen int) {
	if m.warm {
		m.Queue.Update(t, float64(qlen))
	}
}

// Merge folds another replication's measurements into m, combining every
// aggregate statistic exactly: delays (overall and per-class), the
// time-weighted queue average (observation windows add), busy periods,
// the delay histogram (identical geometry required) and retained arrival
// instants (up to the receiver's KeepArrivalTimes cap; each replication's
// instants keep their own clock). Per-run traces — QueueTrace, PopTrace
// and the running mean — are timelines of a single sample path and do not
// aggregate; the receiver's are kept untouched. Merge completed runs only.
//
// Truncation does not blur: the merged Truncated flag is the OR, and
// TruncatedBy appends one entry per merged-in collector (or that
// collector's own TruncatedBy, when merging an aggregate into an
// aggregate), so a network or sharded run can attribute a short window to
// the specific station that hit its budget instead of summing flags from
// stations with disjoint measurement windows.
func (m *Measurements) Merge(o *Measurements) {
	if len(o.TruncatedBy) > 0 {
		m.TruncatedBy = append(m.TruncatedBy, o.TruncatedBy...)
	} else {
		m.TruncatedBy = append(m.TruncatedBy, o.Truncated)
	}
	m.Truncated = m.Truncated || o.Truncated
	m.Delays.Merge(&o.Delays)
	if len(o.ByClass) > len(m.ByClass) {
		grown := make([]stats.Welford, len(o.ByClass))
		copy(grown, m.ByClass)
		m.ByClass = grown
	}
	for i := range o.ByClass {
		m.ByClass[i].Merge(&o.ByClass[i])
	}
	m.Queue.Merge(&o.Queue)
	m.Busy.Merge(&o.Busy)
	if m.DelayH != nil && o.DelayH != nil {
		m.DelayH.Merge(o.DelayH)
	}
	if m.cfg.KeepArrivalTimes > 0 {
		room := m.cfg.KeepArrivalTimes - len(m.Arrivals)
		if room > len(o.Arrivals) {
			room = len(o.Arrivals)
		}
		if room > 0 {
			m.Arrivals = append(m.Arrivals, o.Arrivals[:room]...)
		}
	}
}

// MeanDelay returns the mean message sojourn time.
func (m *Measurements) MeanDelay() float64 { return m.Delays.Mean() }

// MeanQueue returns the time-average number in system.
func (m *Measurements) MeanQueue() float64 { return m.Queue.Mean() }

// ObservedRate returns completed messages per unit time.
func (m *Measurements) ObservedRate() float64 {
	if m.Queue.Elapsed() <= 0 {
		return 0
	}
	return float64(m.Delays.N()) / m.Queue.Elapsed()
}

// Interarrivals derives the interarrival sequence from the retained
// arrival instants.
func (m *Measurements) Interarrivals() []float64 {
	if len(m.Arrivals) < 2 {
		return nil
	}
	out := make([]float64, len(m.Arrivals)-1)
	for i := 1; i < len(m.Arrivals); i++ {
		out[i-1] = m.Arrivals[i] - m.Arrivals[i-1]
	}
	return out
}
