package fit

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hap/internal/haperr"
)

// synthTimes generates an MMPP2-like arrival sequence (rates 2/20 with
// sticky per-arrival switching) for fitter tests and benchmarks.
func synthTimes(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	r := [2]float64{2, 20}
	p := [2]float64{0.98, 0.95}
	state, t := 0, 0.0
	times := make([]float64, n)
	for i := range times {
		t += rng.ExpFloat64() / r[state]
		times[i] = t
		if rng.Float64() > p[state] {
			state = 1 - state
		}
	}
	return times
}

// TestFitHotPathAllocs pins the zero-allocation contract of the continuous
// estimation loop (same style as internal/obs.TestHotPathAllocs): at
// steady state — ring grown, scratch arena grown, warm start converging —
// TraceStats.Add, Slide and a warm-started FitMMPP2EM re-fit must not
// allocate, or a long-running hapfit -listen loop would feed the GC on
// every arrival.
func TestFitHotPathAllocs(t *testing.T) {
	cfg := TraceConfig{
		Windows:      []float64{0.1, 0.2},
		GapThreshold: 0.05,
		SlideWindow:  1.0,
	}
	ts, err := NewTraceStats(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Reach steady state: enough arrivals that the ring has grown to the
	// window's occupancy and every eviction path has run.
	now, dt := 0.0, 0.002
	for i := 0; i < 2000; i++ {
		if err := ts.Add(now); err != nil {
			t.Fatal(err)
		}
		ts.Slide(now)
		now += dt
	}

	if got := testing.AllocsPerRun(1000, func() {
		if err := ts.Add(now); err != nil {
			t.Fatal(err)
		}
		ts.Slide(now)
		now += dt
	}); got != 0 {
		t.Errorf("TraceStats.Add+Slide allocates %.1f/op at steady state, want 0", got)
	}

	// Warm-started re-fit: feed the Refitter a couple of windows first so
	// its scratch arena and times buffer have grown and the warm start
	// converges, then require the re-fit itself to be allocation-free.
	times := synthTimes(4000, 3)
	wts, err := NewTraceStats(TraceConfig{SlideWindow: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range times {
		if err := wts.Add(tm); err != nil {
			t.Fatal(err)
		}
	}
	rf := &Refitter{Opt: EMOptions{MaxSamples: -1}}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := rf.Refit(ctx, wts); err != nil {
			t.Fatalf("warm-up refit %d: %v", i, err)
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		f, err := rf.Refit(ctx, wts)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Diag.Converged {
			t.Fatal("steady-state warm re-fit did not converge")
		}
	}); got != 0 {
		t.Errorf("warm-start FitMMPP2EM re-fit allocates %.1f/op at steady state, want 0", got)
	}
}

// TestEMMultiStartDeterminism asserts the par contract for multi-start EM:
// the selected fit is bit-identical at any worker count, and depends only
// on (Starts, Seed).
func TestEMMultiStartDeterminism(t *testing.T) {
	times := synthTimes(5000, 11)
	base := EMOptions{Starts: 6, Seed: 42, MaxIter: 60}
	var ref MMPP2Fit
	for i, workers := range []int{1, 2, 3, 8} {
		opt := base
		opt.Workers = workers
		f, err := FitMMPP2EM(context.Background(), times, opt)
		if err != nil && !haperrIs(err, haperr.ErrNotConverged) {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			ref = f
			continue
		}
		if !reflect.DeepEqual(f, ref) {
			t.Errorf("workers=%d fit differs from workers=1:\n  got  %+v\n  want %+v", workers, f, ref)
		}
	}

	// A different seed must be allowed to land elsewhere; same seed again
	// must reproduce exactly.
	opt := base
	opt.Workers = 4
	again, err := FitMMPP2EM(context.Background(), times, opt)
	if err != nil && !haperrIs(err, haperr.ErrNotConverged) {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, ref) {
		t.Errorf("same (Starts, Seed) reproduced a different fit")
	}
}

// TestEMWarmStartConverges asserts a warm re-fit of (nearly) the same data
// settles in far fewer iterations than the cold fit it was seeded from.
func TestEMWarmStartConverges(t *testing.T) {
	times := synthTimes(20000, 5)
	cold, err := FitMMPP2EM(context.Background(), times, EMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := FitMMPP2EM(context.Background(), times, EMOptions{Warm: &cold})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Diag.Iterations >= cold.Diag.Iterations {
		t.Errorf("warm start took %d iterations, cold took %d — warm should be cheaper",
			warm.Diag.Iterations, cold.Diag.Iterations)
	}
	if rel := math.Abs(warm.Model.R1-cold.Model.R1) / cold.Model.R1; rel > 0.05 {
		t.Errorf("warm R1 %g drifted %.1f%% from cold %g", warm.Model.R1, 100*rel, cold.Model.R1)
	}
}

// TestTraceStatsSlideWindow exercises the retention ring: eviction
// boundaries, wraparound, and WindowTimes ordering.
func TestTraceStatsSlideWindow(t *testing.T) {
	ts, err := NewTraceStats(TraceConfig{SlideWindow: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := ts.Add(float64(i) * 0.01); err != nil {
			t.Fatal(err)
		}
	}
	// Arrivals span [0, 2.99]; sliding at 2.99 must retain (1.99, 2.99].
	if got := ts.Slide(2.99); got == 0 {
		t.Fatal("Slide evicted nothing")
	}
	times := ts.WindowTimes(nil)
	if len(times) != ts.WindowN() {
		t.Fatalf("WindowTimes returned %d, WindowN says %d", len(times), ts.WindowN())
	}
	for i, tm := range times {
		if tm < 2.99-1.0 {
			t.Errorf("retained stale timestamp %g", tm)
		}
		if i > 0 && tm < times[i-1] {
			t.Errorf("WindowTimes out of order at %d: %g < %g", i, tm, times[i-1])
		}
	}
	// Sliding past everything empties the ring; the cumulative stats stay.
	ts.Slide(100)
	if ts.WindowN() != 0 {
		t.Errorf("WindowN = %d after sliding past the trace, want 0", ts.WindowN())
	}
	if ts.N() != 300 {
		t.Errorf("cumulative N = %d after slide, want 300 (slide must not touch moments)", ts.N())
	}
	// Disabled retention: Slide is a no-op and WindowTimes stays empty.
	off, _ := NewTraceStats(TraceConfig{})
	_ = off.Add(1)
	if off.Slide(10) != 0 || off.WindowN() != 0 {
		t.Error("retention disabled but ring is live")
	}
	// A negative or non-finite window is rejected as user input.
	if _, err := NewTraceStats(TraceConfig{SlideWindow: -1}); err == nil {
		t.Error("negative SlideWindow accepted")
	}
	if _, err := NewTraceStats(TraceConfig{SlideWindow: math.Inf(1)}); err == nil {
		t.Error("infinite SlideWindow accepted")
	}
}

// TestRefitterTracksDrift drives a Refitter across a window whose traffic
// switches regime and asserts the warm-started fits follow.
func TestRefitterTracksDrift(t *testing.T) {
	ts, err := NewTraceStats(TraceConfig{SlideWindow: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	rf := &Refitter{Opt: EMOptions{}}
	rng := rand.New(rand.NewSource(9))
	now := 0.0
	feed := func(rate float64, n int) {
		for i := 0; i < n; i++ {
			now += rng.ExpFloat64() / rate
			if err := ts.Add(now); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Regime A: MMPP-ish mixture around rates 2 and 20.
	feed(2, 2000)
	feed(20, 2000)
	f1, err := rf.Refit(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rf.Last(); !ok {
		t.Fatal("Refitter.Last empty after a successful fit")
	}
	// Slide the old regime out and feed a faster one.
	ts.Slide(now + 1e9)
	feed(10, 2000)
	feed(100, 2000)
	f2, err := rf.Refit(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	if !(f2.Model.R1 > f1.Model.R1) {
		t.Errorf("refit did not follow the regime shift: R1 %g -> %g", f1.Model.R1, f2.Model.R1)
	}
}

// TestInterarrivalsCappedAllocation pins the satellite fix: the buffer is
// sized to the capped count, not len(times)-1.
func TestInterarrivalsCappedAllocation(t *testing.T) {
	times := synthTimes(100000, 1)
	var s Scratch
	x, err := s.interarrivals(times, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 100 {
		t.Fatalf("len = %d, want 100", len(x))
	}
	if cap(x) != 100 {
		t.Errorf("cap = %d, want 100 (allocation must be sized to the cap, not the trace)", cap(x))
	}
	// Package-level interarrivals (the selection path) gets the same fix.
	y, err := interarrivals(times, 250)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != 250 || cap(y) != 250 {
		t.Errorf("package interarrivals len/cap = %d/%d, want 250/250", len(y), cap(y))
	}
}

// TestFitParallelCandidatesDeterminism asserts Fit's report is identical
// at any worker count.
func TestFitParallelCandidatesDeterminism(t *testing.T) {
	times := synthTimes(20000, 23)
	var ref *Report
	for i, workers := range []int{1, 4} {
		rep, err := Fit(context.Background(), times, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			ref = rep
			continue
		}
		if rep.Best != ref.Best {
			t.Errorf("workers=%d best %q, workers=1 best %q", workers, rep.Best, ref.Best)
		}
		if len(rep.Candidates) != len(ref.Candidates) {
			t.Fatalf("candidate counts differ: %d vs %d", len(rep.Candidates), len(ref.Candidates))
		}
		for j := range rep.Candidates {
			a, b := rep.Candidates[j], ref.Candidates[j]
			if a.Name != b.Name || a.BIC != b.BIC || a.LogLik != b.LogLik || a.Error != b.Error {
				t.Errorf("candidate %d differs: %+v vs %+v", j, a, b)
			}
		}
	}
}

func haperrIs(err, target error) bool { return errors.Is(err, target) }
