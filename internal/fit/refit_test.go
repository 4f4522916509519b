package fit

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"hap/internal/haperr"
)

// feedPoisson appends n exponential(rate) arrivals to ts starting at *now.
func feedPoisson(t *testing.T, ts *TraceStats, rng *rand.Rand, now *float64, rate float64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		*now += rng.ExpFloat64() / rate
		if err := ts.Add(*now); err != nil {
			t.Fatal(err)
		}
		ts.Slide(*now)
	}
}

// TestWindowMoments pins the window-scoped moment accessor against a
// direct computation over the retained timestamps.
func TestWindowMoments(t *testing.T) {
	ts, err := NewTraceStats(TraceConfig{SlideWindow: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	now := 0.0
	feedPoisson(t, ts, rng, &now, 50, 5000)

	rate, c2 := ts.WindowMoments()
	w := ts.WindowTimes(nil)
	if len(w) != ts.WindowN() {
		t.Fatalf("WindowTimes len %d != WindowN %d", len(w), ts.WindowN())
	}
	// Direct two-pass computation over the same timestamps.
	span := w[len(w)-1] - w[0]
	wantRate := float64(len(w)-1) / span
	var mean float64
	for i := 1; i < len(w); i++ {
		mean += w[i] - w[i-1]
	}
	mean /= float64(len(w) - 1)
	var ss float64
	for i := 1; i < len(w); i++ {
		d := (w[i] - w[i-1]) - mean
		ss += d * d
	}
	wantC2 := ss / float64(len(w)-2) / (mean * mean)
	if math.Abs(rate-wantRate) > 1e-9*wantRate {
		t.Errorf("window rate %v, want %v", rate, wantRate)
	}
	if math.Abs(c2-wantC2) > 1e-9*wantC2 {
		t.Errorf("window c² %v, want %v", c2, wantC2)
	}
	// The accessor must not allocate (it runs inside refit report cycles).
	if allocs := testing.AllocsPerRun(100, func() { ts.WindowMoments() }); allocs != 0 {
		t.Errorf("WindowMoments allocates %v/op, want 0", allocs)
	}
	// Degenerate: under 2 retained timestamps → zeros, no panic.
	empty, _ := NewTraceStats(TraceConfig{SlideWindow: 1})
	if r, c := empty.WindowMoments(); r != 0 || c != 0 {
		t.Errorf("empty WindowMoments = %v, %v, want 0, 0", r, c)
	}
}

// TestRefitReportFields is the regression test for the refit reporting
// bug: the report must carry window-scoped rate/c² (the data the fit
// saw) next to — and distinct from — the cumulative stream moments, and
// the JSON field names are pinned as the wire contract.
func TestRefitReportFields(t *testing.T) {
	ts, err := NewTraceStats(TraceConfig{SlideWindow: 3.0})
	if err != nil {
		t.Fatal(err)
	}
	rf := &Refitter{Opt: EMOptions{}}
	rng := rand.New(rand.NewSource(11))
	now := 0.0
	// Regime shift: slow stream, then a 10x faster one that fills the
	// window. The cumulative rate averages both; the window rate must
	// describe only the recent regime.
	feedPoisson(t, ts, rng, &now, 5, 4000)
	feedPoisson(t, ts, rng, &now, 50, 4000)
	if _, err := rf.Refit(context.Background(), ts); err != nil && !errors.Is(err, haperr.ErrNotConverged) {
		t.Fatal(err)
	}
	rep := rf.Report(ts)
	if rep.Arrivals != ts.N() || rep.WindowN != ts.WindowN() {
		t.Errorf("report counts %d/%d, want %d/%d", rep.Arrivals, rep.WindowN, ts.N(), ts.WindowN())
	}
	if !(rep.WindowRate > 2*rep.CumRate) {
		t.Errorf("window rate %v should be far above cumulative %v after the shift", rep.WindowRate, rep.CumRate)
	}
	if wr, wc2 := ts.WindowMoments(); rep.WindowRate != wr || rep.WindowC2 != wc2 {
		t.Errorf("report window moments %v/%v != accessor %v/%v", rep.WindowRate, rep.WindowC2, wr, wc2)
	}
	if rep.R0 <= 0 || rep.R1 <= 0 || rep.Iterations <= 0 {
		t.Errorf("report missing fit fields: %+v", rep)
	}

	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"arrivals", "window_n", "window_rate", "window_c2",
		"cum_rate", "cum_c2", "r0", "r1", "q01", "q10",
		"iterations", "converged",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("refit report JSON missing pinned field %q (got %s)", key, b)
		}
	}
	if len(m) != 12 {
		t.Errorf("refit report JSON has %d fields, want 12: %s", len(m), b)
	}
}

// TestRefitterConvergedSequence is the regression test for the warm-state
// convergence bug: a budget-exhausted window advances the warm state (its
// best iterate seeds the next fit) but must not read back as converged.
func TestRefitterConvergedSequence(t *testing.T) {
	ts, err := NewTraceStats(TraceConfig{SlideWindow: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	now := 0.0
	feedPoisson(t, ts, rng, &now, 2, 1500)
	feedPoisson(t, ts, rng, &now, 20, 1500)

	rf := &Refitter{Opt: EMOptions{MaxIter: 1}}
	if _, ok := rf.Last(); ok {
		t.Fatal("a fit is reported before any fit ran")
	}
	f, err := rf.Refit(context.Background(), ts)
	if !errors.Is(err, haperr.ErrNotConverged) {
		t.Fatalf("1-iteration budget on a regime mixture should not converge, got err=%v", err)
	}
	if f.Diag.Converged {
		t.Error("best iterate reports Diag.Converged=true alongside ErrNotConverged")
	}
	last, ok := rf.Last()
	if !ok {
		t.Fatal("warm state did not advance on ErrNotConverged")
	}
	if last.Diag.Converged {
		t.Error("not-converged best iterate reads back as converged — degraded decisions would be marked clean")
	}

	// Restore the budget: the warm-started fit now converges and the flag
	// flips without any other state change.
	rf.Opt = EMOptions{}
	if _, err := rf.Refit(context.Background(), ts); err != nil {
		t.Fatal(err)
	}
	if last, _ := rf.Last(); !last.Diag.Converged {
		t.Error("Last fit not marked converged after a clean fit")
	}
}

// TestRefitTimesMatchesRefit pins the snapshot-based entry point to the
// TraceStats-based one: same window → identical fit.
func TestRefitTimesMatchesRefit(t *testing.T) {
	ts, err := NewTraceStats(TraceConfig{SlideWindow: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	now := 0.0
	feedPoisson(t, ts, rng, &now, 3, 1000)
	feedPoisson(t, ts, rng, &now, 30, 1000)

	var a, b Refitter
	fa, errA := a.Refit(context.Background(), ts)
	fb, errB := b.RefitTimes(context.Background(), ts.WindowTimes(nil))
	if (errA == nil) != (errB == nil) {
		t.Fatalf("error mismatch: %v vs %v", errA, errB)
	}
	if fa.Model != fb.Model || fa.LogLik != fb.LogLik {
		t.Errorf("RefitTimes diverged from Refit: %+v vs %+v", fa.Model, fb.Model)
	}
}
