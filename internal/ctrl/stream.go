// Package ctrl is the live traffic control plane: it closes the paper's
// loop as a long-running service. Each stream is a UDP sink whose
// arrivals feed a sliding-window TraceStats; every RefitEvery arrivals a
// snapshot of the window crosses a bounded hand-off to a shared pool of
// fit workers, which re-runs the warm-started MMPP2 EM, re-solves the
// G/M/1 expected delay from the fitted process's exact interarrival
// transform (σ warm-started from the previous cycle), and evaluates the
// paper's admission bound against the stream's delay target. On top of
// the per-stream loop, the daemon superposes the fitted processes
// (Kronecker-sum merge) and solves the aggregate: admission of the
// merged workload is a property of the merged arrival process, not any
// single stream. Decisions, fitted parameters, delay forecasts, and a
// per-stream decision history ring are served over HTTP next to
// /metrics.
//
// Robustness contract: fit and solve never block ingest (a stream with
// a snapshot already in flight, or a full pool queue, drops the cycle
// and counts it), and a stale or budget-exhausted window degrades the
// served decision — flagged, never erroring — to the last good fit.
package ctrl

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"hap/internal/fit"
	"hap/internal/haperr"
	"hap/internal/mmpp"
	"hap/internal/netgen"
)

// Stream states, in lifecycle order. A stream oscillates between live
// and degraded while running; warming only happens once.
const (
	StateWarming  = "warming"  // no fit published yet
	StateLive     = "live"     // fresh, converged fit behind the decisions
	StateDegraded = "degraded" // decisions served from a stale or budget-exhausted fit
	StateClosed   = "closed"   // sink closed; drain owns the final flush
)

// refitJob is one window snapshot crossing from the ingest goroutine to
// a pool worker. Jobs are pooled (two buffers per stream): at steady
// state the hand-off reuses the same buffers and allocates nothing. The
// stream pointer routes the job back to its owner on the shared queue.
type refitJob struct {
	s          *Stream
	times      []float64
	windowN    int
	windowRate float64
	windowC2   float64
	cumRate    float64
	cumC2      float64
	arrivals   int64
}

// decision is the admission verdict derived from one solved fit.
type decision struct {
	Admit    bool    `json:"admit"`
	Headroom float64 `json:"headroom"` // max arrival-scale multiplier still meeting the target
	Delay    float64 `json:"delay_seconds"`
	Target   float64 `json:"target_seconds"`
	Reason   string  `json:"reason,omitempty"`
}

// HistoryRecord is one completed fit→solve→admit cycle as retained by
// the per-stream decision history ring: enough provenance to see the
// regime shift that flipped a decision.
type HistoryRecord struct {
	At           time.Time       `json:"at"`
	Fit          fit.RefitReport `json:"fit"`
	SolveOK      bool            `json:"solve_ok"`
	DelaySeconds float64         `json:"delay_seconds"`
	Sigma        float64         `json:"sigma"`
	Rho          float64         `json:"rho"`
	AdmitOK      bool            `json:"admit_ok"`
	Decision     decision        `json:"decision"`
}

// published is the stream state visible to the HTTP layer, replaced
// wholesale by the fitting worker under the mutex.
type published struct {
	hasFit    bool
	fit       fit.RefitReport
	fitAt     time.Time
	converged bool // EM met its tolerance

	verdict
}

// Stream is one ingested packet stream with its fit/solve/admit
// pipeline. The Refitter, σ chain and rate memory below are touched by
// at most one pool worker at a time (the inflight gate admits a single
// job per stream); the TraceStats is owned by the ingest goroutine; the
// two sides communicate only through the pooled job buffers.
type Stream struct {
	ID   string
	sink *netgen.Sink
	cfg  *Config

	// target and svcRate are the effective per-stream admission delay
	// target and service rate (Config values unless overridden).
	target  float64
	svcRate float64

	epoch    time.Time
	arrivals atomic.Int64
	closed   atomic.Bool // drain finished: final fit flushed
	draining atomic.Bool // sink closed: no further arrivals possible

	ts   *fit.TraceStats
	rf   fit.Refitter
	pool *pool
	free chan *refitJob
	// inflight gates the stream to one snapshot in the pool at a time:
	// it keeps per-stream jobs ordered (FIFO queue, single consumer per
	// stream) and makes the Refitter/σ state single-writer without a
	// lock on the fit path.
	inflight atomic.Bool

	sigma sigmaChain // worker-local σ chain across solve cycles

	mu       sync.Mutex
	pub      published
	hist     []HistoryRecord // fixed-size ring, capacity cfg.HistorySize
	histNext int
	histLen  int
}

func newStream(id string, sink *netgen.Sink, cfg *Config, p *pool, ov StreamOverride) (*Stream, error) {
	ts, err := fit.NewTraceStats(fit.TraceConfig{SlideWindow: cfg.Window})
	if err != nil {
		return nil, err
	}
	s := &Stream{
		ID:      id,
		sink:    sink,
		cfg:     cfg,
		target:  cfg.TargetDelay,
		svcRate: cfg.ServiceRate,
		epoch:   time.Now(),
		ts:      ts,
		rf:      fit.Refitter{Opt: cfg.EM},
		pool:    p,
		free:    make(chan *refitJob, 2),
		hist:    make([]HistoryRecord, cfg.HistorySize),
	}
	if ov.TargetDelay > 0 {
		s.target = ov.TargetDelay
	}
	if ov.ServiceRate > 0 {
		s.svcRate = ov.ServiceRate
	}
	s.free <- &refitJob{s: s}
	s.free <- &refitJob{s: s}
	if sink != nil {
		sink.OnArrival = func(_ float64) {
			// Collect resets its clock on every call, and the ingest loop
			// re-enters Collect after idle gaps — the stream keeps its own
			// monotone epoch instead.
			s.ingest(time.Since(s.epoch).Seconds())
		}
	}
	return s, nil
}

// Addr returns the stream's bound UDP address.
func (s *Stream) Addr() string { return s.sink.Addr() }

// TargetDelay returns the stream's effective admission delay target.
func (s *Stream) TargetDelay() float64 { return s.target }

// ServiceRate returns the stream's effective service rate.
func (s *Stream) ServiceRate() float64 { return s.svcRate }

// ingest is the per-packet hot path, run on the sink's Collect
// goroutine. It must never block and, at steady state (job buffers
// grown, ring at peak occupancy), never allocate.
func (s *Stream) ingest(sec float64) {
	if err := s.ts.Add(sec); err != nil {
		obsIngestErrors.Inc()
		return
	}
	s.ts.Slide(sec)
	n := s.arrivals.Add(1)
	obsArrivals.Inc()
	if n%int64(s.cfg.RefitEvery) != 0 || s.ts.WindowN() < s.cfg.minWindow() {
		return
	}
	// One snapshot per stream in the pool at a time: a stream whose
	// previous cycle is still queued or fitting drops this one.
	if !s.inflight.CompareAndSwap(false, true) {
		obsRefitsSkipped.Inc()
		return
	}
	select {
	case j := <-s.free:
		s.fillJob(j)
		if !s.pool.enqueue(j) {
			// Shared queue full: hand the buffer back (cap 2, we hold
			// one, so this send cannot block) and drop the cycle.
			s.free <- j
			s.inflight.Store(false)
			obsRefitsSkipped.Inc()
		}
	default:
		// Both buffers in flight (the drain-time flush holds one).
		s.inflight.Store(false)
		obsRefitsSkipped.Inc()
	}
}

// fillJob snapshots the current window into a pooled job buffer.
func (s *Stream) fillJob(j *refitJob) {
	j.times = s.ts.WindowTimes(j.times[:0])
	j.windowN = s.ts.WindowN()
	j.windowRate, j.windowC2 = s.ts.WindowMoments()
	j.cumRate, j.cumC2 = s.ts.Rate(), s.ts.C2()
	j.arrivals = s.ts.N()
}

// flushFinal runs the drain-time fit: one last synchronous snapshot of
// whatever the window holds, processed on the calling goroutine. Call
// only after the ingest goroutine has stopped and the pool has drained
// (both job buffers are home and nothing else touches the fit state).
func (s *Stream) flushFinal() {
	if s.ts.WindowN() < s.cfg.minWindow() {
		return
	}
	j := <-s.free
	s.fillJob(j)
	s.processJob(j)
	s.free <- j
}

func (s *Stream) processJob(j *refitJob) {
	start := time.Now()
	f, err := s.rf.RefitTimes(noCancel, j.times)
	obsRefitTime.Observe(time.Since(start))
	switch {
	case err == nil:
		obsRefits.Inc()
	case errors.Is(err, haperr.ErrNotConverged):
		obsRefits.Inc()
		obsRefitNotConverged.Inc()
	default:
		obsRefitErrors.Inc()
		return // keep the last good fit; decisions degrade, not error
	}

	rep := fit.RefitReport{
		Arrivals:   j.arrivals,
		WindowN:    j.windowN,
		WindowRate: j.windowRate,
		WindowC2:   j.windowC2,
		CumRate:    j.cumRate,
		CumC2:      j.cumC2,
		R0:         f.Model.R0,
		R1:         f.Model.R1,
		Q01:        f.Model.Q01,
		Q10:        f.Model.Q10,
		Iterations: f.Diag.Iterations,
		Converged:  f.Diag.Converged,
	}

	pub := published{
		hasFit:    true,
		fit:       rep,
		fitAt:     time.Now(),
		converged: f.Diag.Converged,
	}
	s.solveAndAdmit(f.Model, &pub)

	rec := HistoryRecord{
		At:           pub.fitAt,
		Fit:          rep,
		SolveOK:      pub.solveOK,
		DelaySeconds: pub.delay,
		Sigma:        pub.sigma,
		Rho:          pub.rho,
		AdmitOK:      pub.admitOK,
		Decision:     pub.dec,
	}

	s.mu.Lock()
	s.pub = pub
	if len(s.hist) > 0 {
		s.hist[s.histNext] = rec
		s.histNext = (s.histNext + 1) % len(s.hist)
		if s.histLen < len(s.hist) {
			s.histLen++
		}
	}
	s.mu.Unlock()
	s.pool.fitGen.Add(1)
}

// streamCycle is a stream's side of the solve→admit cycle.
var streamCycle = cycleKind{
	solves: obsSolves, solveErrors: obsSolveErrors, allowed: obsAdmitAllowed, denied: obsAdmitDenied,
	unstable:   "fitted load unstable at the configured service rate",
	infeasible: "target delay infeasible for the fitted process",
}

// solveAndAdmit runs the solve→admit cycle on the stream's fitted MMPP2,
// a one-component superposition, against the stream's own target and
// service rate.
func (s *Stream) solveAndAdmit(m mmpp.MMPP2, pub *published) {
	start := time.Now()
	defer func() { obsSolveTime.Observe(time.Since(start)) }()
	proc, err := mmpp.SuperposeMMPP2(m)
	if err != nil {
		obsSolveErrors.Inc()
		pub.solveMsg = err.Error()
		return
	}
	pub.verdict = s.sigma.solveAdmit(proc, s.svcRate, s.target, s.cfg, &streamCycle,
		func(headroom float64) (bool, string) {
			if headroom < 1 {
				return false, "observed load exceeds the admissible workload for the delay target"
			}
			return true, ""
		})
}

// snapshot copies the published state.
func (s *Stream) snapshot() published {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pub
}

// history copies the decision ring in chronological order.
func (s *Stream) history() []HistoryRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]HistoryRecord, 0, s.histLen)
	start := s.histNext - s.histLen
	for i := 0; i < s.histLen; i++ {
		out = append(out, s.hist[(start+i+len(s.hist))%len(s.hist)])
	}
	return out
}

// state derives the lifecycle state at the given instant. A stream
// whose sink has closed reports closed immediately — the drain owns it
// from that moment, deterministically, rather than whenever its last
// worker cycle happens to finish.
func (s *Stream) state(now time.Time) string {
	if s.closed.Load() || s.draining.Load() {
		return StateClosed
	}
	pub := s.snapshot()
	switch {
	case !pub.hasFit:
		return StateWarming
	case !pub.converged || !pub.solveOK || s.stale(pub, now):
		return StateDegraded
	default:
		return StateLive
	}
}

// stale reports whether the published fit is older than the configured
// staleness horizon.
func (s *Stream) stale(pub published, now time.Time) bool {
	return pub.hasFit && s.cfg.StaleAfter > 0 && now.Sub(pub.fitAt) > s.cfg.StaleAfter
}
