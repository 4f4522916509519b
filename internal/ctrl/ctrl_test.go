package ctrl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hap/internal/cli"
	"hap/internal/fit"
	"hap/internal/haperr"
	"hap/internal/mmpp"
	"hap/internal/netgen"
)

// testConfig is a daemon config sized for fast tests: tiny refit cadence,
// generous service rate, short idle chunks.
func testConfig(listeners int) Config {
	addrs := make([]string, listeners)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	return Config{
		ListenAddrs: addrs,
		ServiceRate: 1e5,
		TargetDelay: 0.01,
		RefitEvery:  200,
		Window:      1e9,
		MinWindow:   8,
		IdleChunk:   50 * time.Millisecond,
	}
}

// feedUDP writes n crafted packets to addr, pacing them with gap.
func feedUDP(t *testing.T, addr string, n int, gap time.Duration) {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for seq := uint64(1); seq <= uint64(n); seq++ {
		if _, err := conn.Write(netgen.Packet{Seq: seq}.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		if gap > 0 {
			time.Sleep(gap)
		}
	}
}

// syntheticTimes builds a deterministic bursty arrival sequence (a
// two-rate mixture), the same input the determinism tests feed twice.
func syntheticTimes(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, 0, n)
	now := 0.0
	for i := 0; i < n; i++ {
		rate := 50.0
		if i >= n/2 {
			rate = 500.0
		}
		now += rng.ExpFloat64() / rate
		out = append(out, now)
	}
	return out
}

// runStreamOnce ingests times into a fresh sink-less stream, flushes the
// final fit synchronously, and returns the published state.
func runStreamOnce(t *testing.T, cfg Config, times []float64) published {
	t.Helper()
	cfg.applyDefaults()
	s, err := newStream("s0", nil, &cfg, newPool(cfg.QueueDepth), StreamOverride{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range times {
		s.ingest(sec)
	}
	s.flushFinal()
	return s.snapshot()
}

// TestDaemonSIGTERMDrain delivers a real SIGTERM mid-ingest, through the
// signal context cmd/hapd runs under, and asserts the daemon drains: Run
// returns nil, every stream flushes a final fit, and the sockets are
// gone. Run under -race this also shakes out ingest / pool-worker / API
// data races.
func TestDaemonSIGTERMDrain(t *testing.T) {
	cfg := testConfig(2)
	cfg.RefitEvery = 1000 // keep mid-run refits rare; the drain flush is the point
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := cli.SignalContext()
	defer stop()

	runDone := make(chan error, 1)
	go func() { runDone <- d.Run(ctx) }()

	// Enough packets on both streams to make the final fit meaningful.
	for _, s := range d.Streams() {
		feedUDP(t, s.Addr(), 300, 20*time.Microsecond)
	}
	// Keep traffic flowing while the signal lands.
	senderCtx, stopSender := context.WithCancel(context.Background())
	defer stopSender()
	var senderWG sync.WaitGroup
	senderWG.Add(1)
	go func() {
		defer senderWG.Done()
		conn, err := net.Dial("udp", d.Streams()[0].Addr())
		if err != nil {
			return
		}
		defer conn.Close()
		for seq := uint64(1000); senderCtx.Err() == nil; seq++ {
			conn.Write(netgen.Packet{Seq: seq}.Encode(nil))
			time.Sleep(100 * time.Microsecond)
		}
	}()
	// Let ingest observe some of the live traffic, then signal.
	deadline := time.Now().Add(5 * time.Second)
	for d.Streams()[0].arrivals.Load() < 400 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	stopSender()
	senderWG.Wait()
	for _, s := range d.Streams() {
		if got := s.state(time.Now()); got != StateClosed {
			t.Errorf("stream %s state after drain = %q, want %q", s.ID, got, StateClosed)
		}
		pub := s.snapshot()
		if !pub.hasFit {
			t.Errorf("stream %s drained without flushing a final fit (%d arrivals)", s.ID, s.arrivals.Load())
		}
	}
	// The drain ran a final aggregate recompute over the flushed fits.
	agg := d.agg.snapshot()
	if !agg.ok || len(agg.streams) != 2 {
		t.Errorf("final aggregate recompute missing: %+v", agg)
	}
}

// TestDrainStateGating pins the deterministic drain ordering: the moment
// the sinks close a stream reports closed — before its final flush, not
// whenever the last pool cycle happens to finish.
func TestDrainStateGating(t *testing.T) {
	d, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer d.api.close()
	s := d.Streams()[0]
	if got := s.state(time.Now()); got != StateWarming {
		t.Fatalf("fresh stream state = %q, want %q", got, StateWarming)
	}
	d.closeSinks()
	if got := s.state(time.Now()); got != StateClosed {
		t.Errorf("state after closeSinks = %q, want %q (drain owns the stream from sink closure)", got, StateClosed)
	}
}

// TestMultiStreamDeterminism pins the decision contract: identical
// arrival sequences produce identical fits and decisions, independent of
// which stream carried them. Mid-run refit cycles are allowed to be
// skipped under load (nondeterministic), so the test exercises the
// deterministic path the contract covers: the drain-time flush.
func TestMultiStreamDeterminism(t *testing.T) {
	cfg := testConfig(0)
	cfg.ListenAddrs = nil
	cfg.RefitEvery = 1 << 30 // only the final flush fits
	times := syntheticTimes(3000, 42)

	a := runStreamOnce(t, cfg, times)
	b := runStreamOnce(t, cfg, times)
	if !a.hasFit || !b.hasFit {
		t.Fatal("no fit published")
	}
	if a.fit != b.fit {
		t.Errorf("fits diverge:\n  a=%+v\n  b=%+v", a.fit, b.fit)
	}
	if a.dec != b.dec {
		t.Errorf("decisions diverge:\n  a=%+v\n  b=%+v", a.dec, b.dec)
	}
	if a.delay != b.delay || a.sigma != b.sigma {
		t.Errorf("delay forecasts diverge: %v/%v vs %v/%v", a.delay, a.sigma, b.delay, b.sigma)
	}
}

// cycleKey is the timestamp-free projection of one fit→solve→admit cycle,
// used to compare runs bit-for-bit.
type cycleKey struct {
	fit     fit.RefitReport
	solveOK bool
	sigma   float64
	delay   float64
	admitOK bool
	dec     decision
}

func keyOf(h HistoryRecord) cycleKey {
	return cycleKey{fit: h.Fit, solveOK: h.SolveOK, sigma: h.Sigma,
		delay: h.DelaySeconds, admitOK: h.AdmitOK, dec: h.Decision}
}

// runPool drives nStreams sink-less streams through a shared pool with
// the given worker count, interleaving arrivals round-robin and
// spin-waiting each stream's cycle to completion so no cycle is dropped.
// It returns every stream's full decision history (mid-run cycles plus
// the final flush).
func runPool(t *testing.T, workers, nStreams int, seqs [][]float64) [][]cycleKey {
	t.Helper()
	cfg := testConfig(0)
	cfg.ListenAddrs = nil
	cfg.Workers = workers
	cfg.QueueDepth = nStreams
	cfg.applyDefaults()
	p := newPool(cfg.QueueDepth)
	streams := make([]*Stream, nStreams)
	for i := range streams {
		s, err := newStream(fmt.Sprintf("s%d", i), nil, &cfg, p, StreamOverride{})
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = s
	}
	p.start(workers)
	waitIdle := func(s *Stream) {
		deadline := time.Now().Add(30 * time.Second)
		for s.inflight.Load() {
			if time.Now().After(deadline) {
				t.Fatalf("stream %s fit cycle stuck in the pool", s.ID)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	idx := make([]int, nStreams)
	for done := false; !done; {
		done = true
		for i, s := range streams {
			if idx[i] >= len(seqs[i]) {
				continue
			}
			done = false
			s.ingest(seqs[i][idx[i]])
			idx[i]++
			if idx[i]%cfg.RefitEvery == 0 {
				// Every cycle must be processed, not dropped, for runs to
				// be comparable across worker counts.
				waitIdle(s)
			}
		}
	}
	p.close()
	out := make([][]cycleKey, nStreams)
	for i, s := range streams {
		s.flushFinal()
		for _, h := range s.history() {
			out[i] = append(out[i], keyOf(h))
		}
	}
	return out
}

// TestPoolWorkerCountDeterminism pins the acceptance contract for the
// shared pool: with the one-in-flight-per-stream gate, per-stream
// decision sequences are bit-identical at any worker count — a 2-worker
// pool over 3 streams reproduces the per-stream-worker baseline exactly,
// cycle by cycle.
func TestPoolWorkerCountDeterminism(t *testing.T) {
	const nStreams = 3
	seqs := make([][]float64, nStreams)
	for i := range seqs {
		seqs[i] = syntheticTimes(1000, int64(100+i))
	}
	baseline := runPool(t, nStreams, nStreams, seqs) // one worker per stream
	for _, workers := range []int{1, 2, 4} {
		got := runPool(t, workers, nStreams, seqs)
		for i := range got {
			if len(got[i]) != len(baseline[i]) {
				t.Fatalf("workers=%d stream %d: %d cycles, baseline has %d",
					workers, i, len(got[i]), len(baseline[i]))
			}
			for c := range got[i] {
				if got[i][c] != baseline[i][c] {
					t.Errorf("workers=%d stream %d cycle %d diverges from baseline:\n  got  %+v\n  want %+v",
						workers, i, c, got[i][c], baseline[i][c])
				}
			}
		}
	}
}

// TestSigmaChainResets pins the σ-chain hygiene: a >2× fitted-rate jump
// clears the warm-start before the solve, a failed solve clears it
// after (per stream and for the aggregate), and a small rate move keeps
// the chain.
func TestSigmaChainResets(t *testing.T) {
	cfg := testConfig(0)
	cfg.ListenAddrs = nil
	cfg.applyDefaults()
	s, err := newStream("s0", nil, &cfg, newPool(1), StreamOverride{})
	if err != nil {
		t.Fatal(err)
	}
	cool := mmpp.MMPP2{R0: 50, R1: 200, Q01: 1, Q10: 1}
	var pub published
	s.solveAndAdmit(cool, &pub)
	if !pub.solveOK || s.sigma.warm == 0 {
		t.Fatalf("baseline solve failed: %+v (warm sigma=%g)", pub, s.sigma.warm)
	}

	// A small move (≤2×) keeps the chain: no reset counted.
	base := obsSigmaResets.Value()
	warm := mmpp.MMPP2{R0: 75, R1: 300, Q01: 1, Q10: 1}
	var pubWarm published
	s.solveAndAdmit(warm, &pubWarm)
	if got := obsSigmaResets.Value() - base; got != 0 {
		t.Errorf("1.5x rate move reset the sigma chain %d times, want 0", got)
	}

	// A >2× jump clears the chain (counted once), then re-seeds from the
	// fresh solve.
	base = obsSigmaResets.Value()
	hot := mmpp.MMPP2{R0: 500, R1: 2000, Q01: 1, Q10: 1}
	var pubHot published
	s.solveAndAdmit(hot, &pubHot)
	if got := obsSigmaResets.Value() - base; got != 1 {
		t.Errorf("4x rate jump reset the sigma chain %d times, want 1", got)
	}
	if !pubHot.solveOK || s.sigma.warm != pubHot.sigma {
		t.Errorf("chain not re-seeded after the jump: warm sigma=%g pub=%+v", s.sigma.warm, pubHot)
	}
	if s.sigma.lastRate != hot.MeanRate() {
		t.Errorf("lastRate = %g, want %g", s.sigma.lastRate, hot.MeanRate())
	}

	// A failed solve (fitted load unstable at the service rate) must not
	// seed the next cycle: the chain clears.
	su, err := newStream("s1", nil, &cfg, newPool(1), StreamOverride{ServiceRate: 10})
	if err != nil {
		t.Fatal(err)
	}
	su.sigma = sigmaChain{warm: 0.5, lastRate: cool.MeanRate()}
	base = obsSigmaResets.Value()
	var pubErr published
	su.solveAndAdmit(cool, &pubErr) // mean rate ~125 against μ=10: unstable
	if pubErr.solveOK {
		t.Fatal("unstable load solved")
	}
	if su.sigma.warm != 0 {
		t.Errorf("warm sigma = %g after solve error, want 0", su.sigma.warm)
	}
	if got := obsSigmaResets.Value() - base; got != 1 {
		t.Errorf("solve error reset the sigma chain %d times, want 1", got)
	}
	if !pubErr.admitOK || pubErr.dec.Admit {
		t.Errorf("unstable load should deny with reason, got %+v", pubErr.dec)
	}

	// The aggregate chain follows the same hygiene: a failed solve at an
	// unchanged merged rate (no jump reset) clears the chain, counted once.
	d := &Daemon{cfg: cfg, streams: []*Stream{s}}
	d.cfg.ServiceRate = 10
	s.pub = published{hasFit: true, fit: fit.RefitReport{R0: cool.R0, R1: cool.R1, Q01: cool.Q01, Q10: cool.Q10}}
	d.agg.sigma = sigmaChain{warm: 0.5, lastRate: cool.MeanRate()}
	base = obsSigmaResets.Value()
	d.recomputeAggregate(time.Now()) // merged rate ~125 against μ=10
	if aggErr := d.agg.snapshot(); aggErr.solveOK {
		t.Fatal("unstable aggregate solved")
	}
	if d.agg.sigma.warm != 0 {
		t.Errorf("aggregate warm sigma = %g after solve error, want 0", d.agg.sigma.warm)
	}
	if got := obsSigmaResets.Value() - base; got != 1 {
		t.Errorf("aggregate solve error reset the sigma chain %d times, want 1", got)
	}
}

// TestHistoryRing pins the decision-history ring: fixed capacity, oldest
// cycles evicted first, records returned in chronological order.
func TestHistoryRing(t *testing.T) {
	cfg := testConfig(0)
	cfg.ListenAddrs = nil
	cfg.RefitEvery = 1 << 30 // cycles driven by flushFinal below
	cfg.HistorySize = 4
	cfg.applyDefaults()
	s, err := newStream("s0", nil, &cfg, newPool(1), StreamOverride{})
	if err != nil {
		t.Fatal(err)
	}
	times := syntheticTimes(2400, 3)
	for i := 0; i < 6; i++ {
		for _, sec := range times[i*400 : (i+1)*400] {
			s.ingest(sec)
		}
		s.flushFinal()
	}
	h := s.history()
	if len(h) != 4 {
		t.Fatalf("history holds %d records, want capacity 4", len(h))
	}
	// The retained records are the LAST four cycles, oldest first:
	// cumulative arrivals 1200, 1600, 2000, 2400.
	for i, want := range []int64{1200, 1600, 2000, 2400} {
		if h[i].Fit.Arrivals != want {
			t.Errorf("history[%d].Fit.Arrivals = %d, want %d", i, h[i].Fit.Arrivals, want)
		}
		if i > 0 && h[i].At.Before(h[i-1].At) {
			t.Errorf("history not chronological at %d: %v before %v", i, h[i].At, h[i-1].At)
		}
	}

	// Negative HistorySize disables the ring entirely.
	cfg2 := testConfig(0)
	cfg2.ListenAddrs = nil
	cfg2.RefitEvery = 1 << 30
	cfg2.HistorySize = -1
	cfg2.applyDefaults()
	s2, err := newStream("s1", nil, &cfg2, newPool(1), StreamOverride{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range times[:400] {
		s2.ingest(sec)
	}
	s2.flushFinal()
	if !s2.snapshot().hasFit {
		t.Fatal("no fit published")
	}
	if got := s2.history(); len(got) != 0 {
		t.Errorf("disabled history holds %d records, want 0", len(got))
	}
}

// TestDegradedModeSemantics pins the degraded contract: a
// budget-exhausted EM still publishes its best iterate, flagged, and the
// stream reads degraded instead of erroring.
func TestDegradedModeSemantics(t *testing.T) {
	cfg := testConfig(0)
	cfg.ListenAddrs = nil
	cfg.RefitEvery = 1 << 30
	cfg.EM = fit.EMOptions{MaxIter: 1}
	pub := runStreamOnce(t, cfg, syntheticTimes(3000, 7))
	if !pub.hasFit {
		t.Fatal("budget-exhausted fit was not published")
	}
	if pub.converged {
		t.Error("1-iteration EM on a rate mixture reports converged")
	}
	if !pub.fit.Converged == false && pub.fit.Converged {
		t.Error("report converged flag inconsistent")
	}
	// state() on a live stream object (not drained): degraded.
	cfg2 := testConfig(0)
	cfg2.ListenAddrs = nil
	cfg2.applyDefaults()
	s, err := newStream("sx", nil, &cfg2, newPool(1), StreamOverride{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.state(time.Now()); got != StateWarming {
		t.Errorf("fresh stream state = %q, want %q", got, StateWarming)
	}
	s.mu.Lock()
	s.pub = pub
	s.mu.Unlock()
	if got := s.state(time.Now()); got != StateDegraded {
		t.Errorf("state with unconverged fit = %q, want %q", got, StateDegraded)
	}
	// A converged but stale fit also degrades.
	pub.converged = true
	pub.solveOK = true
	pub.fitAt = time.Now().Add(-time.Hour)
	s.mu.Lock()
	s.pub = pub
	s.mu.Unlock()
	if got := s.state(time.Now()); got != StateDegraded {
		t.Errorf("state with stale fit = %q, want %q", got, StateDegraded)
	}
	pub.fitAt = time.Now()
	s.mu.Lock()
	s.pub = pub
	s.mu.Unlock()
	if got := s.state(time.Now()); got != StateLive {
		t.Errorf("state with fresh converged fit = %q, want %q", got, StateLive)
	}
}

// TestStreamOverrides pins the per-stream target/service-rate overrides:
// zero fields inherit the Config values, positive fields win.
func TestStreamOverrides(t *testing.T) {
	cfg := testConfig(0)
	cfg.ListenAddrs = nil
	cfg.applyDefaults()
	p := newPool(1)
	inherit, err := newStream("s0", nil, &cfg, p, StreamOverride{})
	if err != nil {
		t.Fatal(err)
	}
	if inherit.TargetDelay() != cfg.TargetDelay || inherit.ServiceRate() != cfg.ServiceRate {
		t.Errorf("zero override did not inherit: target=%g rate=%g", inherit.TargetDelay(), inherit.ServiceRate())
	}
	over, err := newStream("s1", nil, &cfg, p, StreamOverride{TargetDelay: 0.5, ServiceRate: 777})
	if err != nil {
		t.Fatal(err)
	}
	if over.TargetDelay() != 0.5 || over.ServiceRate() != 777 {
		t.Errorf("override not applied: target=%g rate=%g", over.TargetDelay(), over.ServiceRate())
	}
	// The override flows into the decision: the admission target in the
	// published decision is the stream's own.
	times := syntheticTimes(1000, 5)
	for _, sec := range times {
		over.ingest(sec)
	}
	over.flushFinal()
	pub := over.snapshot()
	if !pub.hasFit || !pub.admitOK {
		t.Fatalf("override stream did not decide: %+v", pub)
	}
	if pub.dec.Target != 0.5 {
		t.Errorf("decision target = %g, want the override 0.5", pub.dec.Target)
	}
}

// TestCtrlIngestAllocs extends the fit hot-path allocation contract to
// the daemon's ingest path: once the retention ring and job buffers have
// grown, a packet costs zero allocations — including the cycles that
// snapshot a window and hand it to the (busy) pool.
func TestCtrlIngestAllocs(t *testing.T) {
	cfg := testConfig(0)
	cfg.ListenAddrs = nil
	cfg.RefitEvery = 100
	cfg.Window = 2.0
	cfg.applyDefaults()
	p := newPool(1)
	s, err := newStream("s0", nil, &cfg, p, StreamOverride{})
	if err != nil {
		t.Fatal(err)
	}
	// No workers started: jobs pile up (queue cap 1) and further cycles
	// bounce off the inflight gate — exactly the busy-pool steady state,
	// with no concurrent goroutine to pollute the allocation counter.
	now := 0.0
	const dt = 1e-3
	ingestOne := func() {
		now += dt
		s.ingest(now)
	}
	// Grow everything: ring to peak occupancy (window/dt = 2000 retained)
	// and both job buffers through at least one fill each.
	for i := 0; i < 6000; i++ {
		ingestOne()
		if len(p.jobs) == 1 { // drain so the second buffer also cycles
			select {
			case j := <-p.jobs:
				j.s.free <- j
				j.s.inflight.Store(false)
			default:
			}
		}
	}
	if got := testing.AllocsPerRun(5000, ingestOne); got != 0 {
		t.Errorf("ingest allocates %v/op at steady state, want 0", got)
	}
}

// TestAggregateRecompute drives the controller-level fit/solve/admit
// cycle directly: the superposed process's mean rate is the exact sum of
// the per-stream fitted rates (the Kronecker-sum merge is exact, no
// re-fit), the merged decision is conservative over per-stream denials,
// and the state-space cap degrades instead of erroring.
func TestAggregateRecompute(t *testing.T) {
	cfg := testConfig(3)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		d.closeSinks()
		d.api.close()
	}()
	models := []mmpp.MMPP2{
		{R0: 50, R1: 200, Q01: 1, Q10: 1},
		{R0: 80, R1: 300, Q01: 2, Q10: 3},
		{R0: 10, R1: 40, Q01: 0.5, Q10: 0.5},
	}
	inject := func(i int, m mmpp.MMPP2, admit bool) {
		s := d.Streams()[i]
		s.mu.Lock()
		s.pub = published{
			hasFit: true, fitAt: time.Now(), converged: true,
			fit:     fit.RefitReport{R0: m.R0, R1: m.R1, Q01: m.Q01, Q10: m.Q10},
			verdict: verdict{solveOK: true, admitOK: true, dec: decision{Admit: admit}},
		}
		s.mu.Unlock()
	}
	for i, m := range models {
		inject(i, m, true)
	}
	d.recomputeAggregate(time.Now())
	pub := d.agg.snapshot()
	if !pub.ok || len(pub.streams) != 3 || pub.states != 8 {
		t.Fatalf("aggregate snapshot: %+v", pub)
	}
	wantRate := 0.0
	for _, m := range models {
		wantRate += m.MeanRate()
	}
	// The merged mean rate is exact — Kronecker-sum superposition with
	// the product-form stationary law, not an estimate.
	if math.Abs(pub.meanRate-wantRate) > 1e-12*wantRate {
		t.Errorf("aggregate mean rate = %.15g, want exact sum %.15g", pub.meanRate, wantRate)
	}
	if !pub.solveOK || !(pub.delay > 0) {
		t.Errorf("aggregate solve failed: %+v", pub)
	}
	if !pub.admitOK || !pub.dec.Admit || len(pub.denied) != 0 {
		t.Errorf("aggregate should admit (rho ~ %g): %+v", wantRate/cfg.ServiceRate, pub)
	}

	// One stream denying flips the merged decision, with provenance.
	inject(1, models[1], false)
	d.recomputeAggregate(time.Now())
	pub = d.agg.snapshot()
	if pub.dec.Admit {
		t.Error("aggregate admits while stream s1 denies")
	}
	if len(pub.denied) != 1 || pub.denied[0] != "s1" {
		t.Errorf("denied list = %v, want [s1]", pub.denied)
	}
	if !strings.Contains(pub.dec.Reason, "s1") {
		t.Errorf("deny reason does not name the stream: %q", pub.dec.Reason)
	}

	// Beyond the state cap the aggregate degrades with a reason.
	d.cfg.MaxAggregateStates = 4
	d.recomputeAggregate(time.Now())
	pub = d.agg.snapshot()
	if !pub.ok || pub.admitOK || pub.solveOK {
		t.Errorf("capped aggregate should degrade, not decide: %+v", pub)
	}
	if !strings.Contains(pub.solveMsg, "cap") {
		t.Errorf("cap degrade reason: %q", pub.solveMsg)
	}
}

// TestAPIEndpoints boots a full daemon, feeds one stream over UDP, and
// exercises the decision API schema end to end — per-stream, history,
// and aggregate endpoints.
func TestAPIEndpoints(t *testing.T) {
	cfg := testConfig(2)
	cfg.RefitEvery = 150
	cfg.Workers = 1 // shared pool across both streams
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- d.Run(ctx) }()
	defer func() {
		cancel()
		<-runDone
	}()

	feedUDP(t, d.Streams()[0].Addr(), 1200, 20*time.Microsecond)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if pub := d.Streams()[0].snapshot(); pub.hasFit {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if pub := d.Streams()[0].snapshot(); !pub.hasFit {
		t.Fatal("stream s0 never published a fit")
	}

	base := "http://" + d.APIAddr()
	getJSON := func(path string, wantStatus int) map[string]any {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("GET %s = %d, want %d (%s)", path, resp.StatusCode, wantStatus, body)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
		return m
	}

	dir := getJSON("/v1/streams", http.StatusOK)
	streams, ok := dir["streams"].([]any)
	if !ok || len(streams) != 2 {
		t.Fatalf("/v1/streams returned %v", dir)
	}
	row, _ := streams[0].(map[string]any)
	if _, ok := row["target_seconds"].(float64); !ok {
		t.Errorf("/v1/streams row missing target_seconds: %v", row)
	}

	fitResp := getJSON("/v1/streams/s0/fit", http.StatusOK)
	fm, ok := fitResp["fit"].(map[string]any)
	if !ok {
		t.Fatalf("/fit missing fit object: %v", fitResp)
	}
	for _, key := range []string{"window_rate", "window_c2", "cum_rate", "r0", "r1", "converged"} {
		if _, ok := fm[key]; !ok {
			t.Errorf("/fit report missing %q", key)
		}
	}

	delay := getJSON("/v1/streams/s0/delay", http.StatusOK)
	if _, ok := delay["delay_seconds"].(float64); !ok {
		t.Errorf("/delay missing delay_seconds: %v", delay)
	}

	admit := getJSON("/v1/streams/s0/admit", http.StatusOK)
	if _, ok := admit["admit"].(bool); !ok {
		t.Errorf("/admit missing admit flag: %v", admit)
	}
	if _, ok := admit["headroom"].(float64); !ok {
		t.Errorf("/admit missing headroom: %v", admit)
	}

	// The decision history carries at least the published cycle.
	hist := getJSON("/v1/streams/s0/history", http.StatusOK)
	recs, ok := hist["records"].([]any)
	if !ok || len(recs) == 0 {
		t.Fatalf("/history returned %v", hist)
	}
	rec, _ := recs[0].(map[string]any)
	for _, key := range []string{"at", "fit", "decision", "solve_ok"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("/history record missing %q", key)
		}
	}
	// A warming stream has an empty history, not an error.
	h1 := getJSON("/v1/streams/s1/history", http.StatusOK)
	if recs, ok := h1["records"].([]any); !ok || len(recs) != 0 {
		t.Errorf("warming stream history = %v, want empty records", h1)
	}

	// The aggregate recomputes on the daemon's tick once a fit exists.
	deadline = time.Now().Add(10 * time.Second)
	var agg map[string]any
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/aggregate/admit")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			break
		}
		resp.Body.Close()
		time.Sleep(50 * time.Millisecond)
	}
	if agg == nil {
		t.Fatal("/v1/aggregate/admit never left warming")
	}
	if _, ok := agg["admit"].(bool); !ok {
		t.Errorf("/v1/aggregate/admit missing admit flag: %v", agg)
	}
	if got, _ := agg["states"].(float64); got != 2 {
		t.Errorf("aggregate states = %v, want 2 (one fitted stream)", agg["states"])
	}
	aggFit := getJSON("/v1/aggregate/fit", http.StatusOK)
	if rate, ok := aggFit["mean_rate"].(float64); !ok || !(rate > 0) {
		t.Errorf("/v1/aggregate/fit mean_rate = %v", aggFit["mean_rate"])
	}
	aggDelay := getJSON("/v1/aggregate/delay", http.StatusOK)
	if _, ok := aggDelay["delay_seconds"].(float64); !ok {
		t.Errorf("/v1/aggregate/delay missing delay_seconds: %v", aggDelay)
	}

	// The silent second stream is still warming: decisions 503.
	getJSON("/v1/streams/s1/admit", http.StatusServiceUnavailable)
	// Unknown streams 404.
	getJSON("/v1/streams/nope/fit", http.StatusNotFound)

	// The metrics exposition carries the hap_ctrl_ families, including
	// the pool and aggregate ones.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{
		"hap_ctrl_streams", "hap_ctrl_refits_total", "hap_ctrl_arrivals_total",
		"hap_ctrl_pool_workers", "hap_ctrl_pool_jobs_total",
		"hap_ctrl_aggregate_streams", "hap_ctrl_aggregate_solves_total",
		"hap_ctrl_sigma_warm_resets_total",
	} {
		if !strings.Contains(string(body), family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
}

// TestConfigValidation pins the required-field errors.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{ServiceRate: 1, TargetDelay: 1}); err == nil {
		t.Error("no listen address accepted")
	}
	if _, err := New(Config{ListenAddrs: []string{"127.0.0.1:0"}, TargetDelay: 1}); err == nil {
		t.Error("zero service rate accepted")
	}
	if _, err := New(Config{ListenAddrs: []string{"127.0.0.1:0"}, ServiceRate: 1}); err == nil {
		t.Error("zero target delay accepted")
	}
	if _, err := New(Config{ListenAddrs: []string{"not-an-addr"}, ServiceRate: 1, TargetDelay: 1}); err == nil {
		t.Error("bad listen address accepted")
	}
	if _, err := New(Config{ListenAddrs: []string{"127.0.0.1:0"}, ServiceRate: 1, TargetDelay: 1,
		Overrides: []StreamOverride{{}, {}}}); err == nil {
		t.Error("more overrides than streams accepted")
	}
	if _, err := New(Config{ListenAddrs: []string{"127.0.0.1:0"}, ServiceRate: 1, TargetDelay: 1,
		Overrides: []StreamOverride{{TargetDelay: -1}}}); err == nil {
		t.Error("negative override accepted")
	}
	// The headroom search ceiling: NaN, infinite or negative is a bad
	// parameter; 0 keeps the default.
	for _, fMax := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		_, err := New(Config{ListenAddrs: []string{"127.0.0.1:0"}, ServiceRate: 1, TargetDelay: 1, FMax: fMax})
		if !errors.Is(err, haperr.ErrBadParameter) {
			t.Errorf("FMax %g: err = %v, want ErrBadParameter", fMax, err)
		}
	}
	c := Config{ListenAddrs: []string{"127.0.0.1:0"}, ServiceRate: 1, TargetDelay: 1}
	if err := c.validate(); err != nil {
		t.Errorf("FMax 0 rejected: %v", err)
	}
	if c.applyDefaults(); c.FMax != 4 {
		t.Errorf("FMax 0 defaults to %g, want 4", c.FMax)
	}
}
