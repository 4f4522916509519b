package ctrl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hap/internal/fit"
	"hap/internal/gm1"
	"hap/internal/haperr"
	"hap/internal/netgen"
)

// noCancel is the fit/solve context: drain must still flush final fits
// after the run context is cancelled, and every stage is bounded by its
// own iteration budget.
var noCancel = context.Background()

// StreamOverride overrides the global delay target and service rate for
// one stream; zero fields inherit the Config values.
type StreamOverride struct {
	TargetDelay float64
	ServiceRate float64
}

// Config parameterises a Daemon. ListenAddrs, ServiceRate and
// TargetDelay are required; everything else defaults.
type Config struct {
	// ListenAddrs binds one UDP sink per address ("127.0.0.1:0" picks a
	// free port). Stream IDs are s0, s1, … in this order.
	ListenAddrs []string
	// Overrides aligns with ListenAddrs: Overrides[i] adjusts stream
	// s<i>'s delay target and/or service rate. May be nil or shorter
	// than ListenAddrs; zero fields inherit the global values.
	Overrides []StreamOverride
	// HTTPAddr serves the decision API and /metrics (default
	// "127.0.0.1:0").
	HTTPAddr string
	// ServiceRate is the message service rate μ'' the delay solves and
	// admission bound assume (per stream unless overridden; always the
	// aggregate's rate).
	ServiceRate float64
	// TargetDelay is the admission delay target in seconds (per stream
	// unless overridden; always the aggregate's target).
	TargetDelay float64
	// FMax caps the admission headroom search (0 means the default 4;
	// must be finite and non-negative).
	FMax float64
	// RefitEvery re-fits a stream every N arrivals (default 2000).
	RefitEvery int
	// Window is the sliding fit window in seconds (default 30).
	Window float64
	// MinWindow is the fewest retained timestamps worth fitting
	// (default 64, floor 8 — the EM minimum).
	MinWindow int
	// StaleAfter flags decisions whose fit is older than this as
	// degraded (default 4× the expected refit interval is unknowable
	// without the rate, so: 30s). <= 0 disables staleness tracking.
	StaleAfter time.Duration
	// Workers sizes the shared fit-worker pool (default: one per
	// stream, the per-stream-worker baseline; thousands of streams want
	// far fewer workers than streams).
	Workers int
	// QueueDepth bounds the shared snapshot queue (default: one slot
	// per stream — with the one-in-flight-per-stream gate that depth
	// never rejects; shrink it to shed load earlier).
	QueueDepth int
	// HistorySize is the per-stream decision history ring capacity
	// (default 64; 0 keeps the default, negative disables history).
	HistorySize int
	// MaxAggregateStates caps the superposed modulating chain (2 states
	// per fitted stream, so 2^streams). Beyond the cap the aggregate
	// endpoints degrade with a reason instead of burning O(n³) per
	// transform evaluation (default 256 = 8 streams).
	MaxAggregateStates int
	// Method selects the G/M/1 σ solver.
	Method gm1.Method
	// EM tunes the per-stream refitters.
	EM fit.EMOptions
	// IdleChunk bounds one Collect call so the ingest loop re-checks
	// its context (default 250ms). Tests shrink it.
	IdleChunk time.Duration
}

func (c *Config) validate() error {
	if len(c.ListenAddrs) == 0 {
		return haperr.Badf("ctrl: at least one listen address is required")
	}
	if !(c.ServiceRate > 0) {
		return haperr.Badf("ctrl: service rate must be positive (got %g)", c.ServiceRate)
	}
	if !(c.TargetDelay > 0) {
		return haperr.Badf("ctrl: target delay must be positive (got %g)", c.TargetDelay)
	}
	if !(c.FMax >= 0) || math.IsInf(c.FMax, 1) {
		return haperr.Badf("ctrl: headroom search ceiling must be finite and non-negative (got %g)", c.FMax)
	}
	if len(c.Overrides) > len(c.ListenAddrs) {
		return haperr.Badf("ctrl: %d overrides for %d streams", len(c.Overrides), len(c.ListenAddrs))
	}
	for i, ov := range c.Overrides {
		if ov.TargetDelay < 0 || ov.ServiceRate < 0 {
			return haperr.Badf("ctrl: override %d must be non-negative (%+v)", i, ov)
		}
	}
	return nil
}

func (c *Config) applyDefaults() {
	if c.HTTPAddr == "" {
		c.HTTPAddr = "127.0.0.1:0"
	}
	if c.FMax == 0 {
		c.FMax = 4
	}
	if c.RefitEvery <= 0 {
		c.RefitEvery = 2000
	}
	if c.Window <= 0 {
		c.Window = 30
	}
	if c.MinWindow <= 0 {
		c.MinWindow = 64
	}
	if c.StaleAfter == 0 {
		c.StaleAfter = 30 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = len(c.ListenAddrs)
		if c.Workers == 0 {
			c.Workers = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = len(c.ListenAddrs)
		if c.QueueDepth == 0 {
			c.QueueDepth = 1
		}
	}
	switch {
	case c.HistorySize == 0:
		c.HistorySize = 64
	case c.HistorySize < 0:
		c.HistorySize = 0
	}
	if c.MaxAggregateStates <= 0 {
		c.MaxAggregateStates = 256
	}
	if c.IdleChunk <= 0 {
		c.IdleChunk = 250 * time.Millisecond
	}
}

func (c *Config) minWindow() int {
	if c.MinWindow < 8 {
		return 8
	}
	return c.MinWindow
}

// pool is the shared fit-worker pool: a bounded queue of window
// snapshots drained by a fixed number of workers. Streams enqueue
// without blocking — a full queue rejects the job — and each stream has
// at most one job in the pool (the inflight gate), so per-stream
// processing is serial and ordered no matter how many workers run.
type pool struct {
	jobs chan *refitJob
	wg   sync.WaitGroup
	// fitGen counts published fits; the aggregate loop recomputes when
	// it moves.
	fitGen atomic.Uint64
}

func newPool(depth int) *pool {
	return &pool{jobs: make(chan *refitJob, depth)}
}

// start launches the workers. Call at most once.
func (p *pool) start(workers int) {
	obsPoolWorkers.Set(int64(workers))
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
}

func (p *pool) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		obsPoolDepth.Set(int64(len(p.jobs)))
		s := j.s
		s.processJob(j)
		select {
		case s.free <- j:
		default:
		}
		s.inflight.Store(false)
	}
}

// enqueue offers a job to the pool without blocking.
func (p *pool) enqueue(j *refitJob) bool {
	select {
	case p.jobs <- j:
		obsPoolJobs.Inc()
		obsPoolDepth.Set(int64(len(p.jobs)))
		return true
	default:
		obsPoolRejects.Inc()
		return false
	}
}

// close drains the pool: the queue closes, workers run it dry and exit.
func (p *pool) close() {
	close(p.jobs)
	p.wg.Wait()
	obsPoolWorkers.Set(0)
	obsPoolDepth.Set(0)
}

// Daemon owns the streams, the fit-worker pool, the aggregate cycle,
// and the HTTP API.
type Daemon struct {
	cfg     Config
	streams []*Stream
	pool    *pool
	agg     aggregate
	api     *apiServer
}

// New binds every sink and the HTTP listener, so address errors surface
// before any goroutine starts. Run starts the loops.
func New(cfg Config) (*Daemon, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	d := &Daemon{cfg: cfg}
	d.pool = newPool(cfg.QueueDepth)
	for i, addr := range cfg.ListenAddrs {
		sink, err := netgen.NewSink(addr)
		if err != nil {
			d.closeSinks()
			return nil, err
		}
		var ov StreamOverride
		if i < len(cfg.Overrides) {
			ov = cfg.Overrides[i]
		}
		st, err := newStream(fmt.Sprintf("s%d", i), sink, &d.cfg, d.pool, ov)
		if err != nil {
			sink.Close()
			d.closeSinks()
			return nil, err
		}
		d.streams = append(d.streams, st)
	}
	api, err := newAPIServer(d, cfg.HTTPAddr)
	if err != nil {
		d.closeSinks()
		return nil, err
	}
	d.api = api
	return d, nil
}

// closeSinks closes every bound socket and marks the streams draining:
// from this moment state() deterministically reports closed — no more
// arrivals are possible, only the drain's final flush remains.
func (d *Daemon) closeSinks() {
	for _, s := range d.streams {
		s.sink.Close()
		s.draining.Store(true)
	}
}

// Streams returns the daemon's streams in ID order.
func (d *Daemon) Streams() []*Stream { return d.streams }

// APIAddr returns the bound HTTP address.
func (d *Daemon) APIAddr() string { return d.api.addr() }

// Run ingests until ctx is cancelled, then drains: sinks close (streams
// report closed from here on), ingest goroutines finish, the pool runs
// its queue dry, each stream flushes one final synchronous fit over
// whatever its window holds, the aggregate recomputes once over the
// final fits, and the API stops. A cancelled context is the normal
// shutdown path and returns nil.
func (d *Daemon) Run(ctx context.Context) error {
	obsStreams.Set(int64(len(d.streams)))
	defer obsStreams.Set(0)

	d.pool.start(d.cfg.Workers)
	var ingestWG sync.WaitGroup
	for _, s := range d.streams {
		ingestWG.Add(1)
		go func(s *Stream) {
			defer ingestWG.Done()
			d.ingestLoop(ctx, s)
		}(s)
	}

	// Staleness gauge and aggregate recompute: cheap scans, coarse
	// cadence, re-solved only when a stream published a new fit.
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	var lastGen uint64
	for done := false; !done; {
		select {
		case <-ctx.Done():
			done = true
		case now := <-tick.C:
			d.updateFitAge(now)
			if gen := d.pool.fitGen.Load(); gen != lastGen {
				lastGen = gen
				d.recomputeAggregate(now)
			}
		}
	}

	// Drain: stop the sockets (Collect returns ErrSinkClosed), wait for
	// ingest to stop touching the TraceStats, let the pool run its
	// queue dry, flush final fits synchronously in stream order, then
	// stop the API.
	d.closeSinks()
	ingestWG.Wait()
	d.pool.close()
	for _, s := range d.streams {
		s.flushFinal()
		s.closed.Store(true)
	}
	d.recomputeAggregate(time.Now())
	d.api.close()
	return nil
}

// ingestLoop re-enters Collect until shutdown. Collect returns on idle
// gaps (IdleChunk) so the loop stays responsive to ctx even on a silent
// stream; a closed sink is the drain signal.
func (d *Daemon) ingestLoop(ctx context.Context, s *Stream) {
	for {
		_, err := s.sink.Collect(ctx, 0, d.cfg.IdleChunk)
		switch {
		case errors.Is(err, netgen.ErrSinkClosed):
			return
		case err != nil:
			obsIngestErrors.Inc()
			return
		}
		if ctx.Err() != nil {
			// Keep draining packets until the sink closes: Collect exits
			// on ctx deadline mid-read, but the drain path owns shutdown.
			return
		}
	}
}

// updateFitAge publishes the oldest fit age across streams.
func (d *Daemon) updateFitAge(now time.Time) {
	maxAge := 0.0
	for _, s := range d.streams {
		pub := s.snapshot()
		if !pub.hasFit {
			continue
		}
		if age := now.Sub(pub.fitAt).Seconds(); age > maxAge {
			maxAge = age
		}
	}
	obsFitAgeMax.Set(maxAge)
}
