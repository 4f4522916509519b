package fit

import (
	"errors"
	"math"
	"testing"

	"hap/internal/haperr"
)

func TestNewTraceStatsRejectsBadLadders(t *testing.T) {
	for _, windows := range [][]float64{
		{1, 1},
		{2, 1},
		{0, 1},
		{-1, 2},
		{1, math.Inf(1)},
	} {
		if _, err := NewTraceStats(TraceConfig{Windows: windows}); !errors.Is(err, haperr.ErrBadParameter) {
			t.Errorf("windows %v: want ErrBadParameter, got %v", windows, err)
		}
	}
	if _, err := NewTraceStats(TraceConfig{Windows: []float64{1, 2, 4}}); err != nil {
		t.Fatalf("valid ladder rejected: %v", err)
	}
}

func TestAddRejectsUntrustedInput(t *testing.T) {
	ts, err := NewTraceStats(TraceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Add(math.NaN()); !errors.Is(err, haperr.ErrBadParameter) {
		t.Errorf("NaN: want ErrBadParameter, got %v", err)
	}
	if err := ts.Add(math.Inf(1)); !errors.Is(err, haperr.ErrBadParameter) {
		t.Errorf("Inf: want ErrBadParameter, got %v", err)
	}
	if err := ts.Add(10); err != nil {
		t.Fatal(err)
	}
	// Gross regression is an error, not a panic: trace files are input.
	if err := ts.Add(9); !errors.Is(err, haperr.ErrBadParameter) {
		t.Errorf("backwards time: want ErrBadParameter, got %v", err)
	}
	// Last-ulp jitter is clamped, as everywhere else in the stats layer.
	if err := ts.Add(10 - 1e-12); err != nil {
		t.Errorf("jitter should clamp, got %v", err)
	}
}

func TestTraceStatsDeterministicStream(t *testing.T) {
	ts, err := NewTraceStats(TraceConfig{Windows: []float64{10}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := ts.Add(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := ts.N(); got != 1000 {
		t.Errorf("N = %d, want 1000", got)
	}
	if got := ts.Rate(); math.Abs(got-1) > 1e-12 {
		t.Errorf("Rate = %g, want 1", got)
	}
	if got := ts.C2(); got != 0 {
		t.Errorf("C2 of a deterministic stream = %g, want 0", got)
	}
	pts := ts.IDCPoints(2)
	if len(pts) != 1 {
		t.Fatalf("IDCPoints = %v, want one point", pts)
	}
	// Every 10-second bin holds exactly 10 arrivals: zero dispersion.
	if pts[0].IDC != 0 {
		t.Errorf("IDC = %g, want 0", pts[0].IDC)
	}
}

func TestMergeMatchesSequentialIngest(t *testing.T) {
	cfg := TraceConfig{Windows: []float64{2, 8}, GapThreshold: 5}
	a, _ := NewTraceStats(cfg)
	b, _ := NewTraceStats(cfg)
	whole, _ := NewTraceStats(cfg)
	times := []float64{0, 0.5, 1.1, 2.0, 9.0, 9.1, 9.4, 12, 13, 21, 21.2, 25}
	for _, tt := range times {
		if err := whole.Add(tt); err != nil {
			t.Fatal(err)
		}
	}
	for _, tt := range times[:6] {
		if err := a.Add(tt); err != nil {
			t.Fatal(err)
		}
	}
	for _, tt := range times[6:] {
		if err := b.Add(tt); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != whole.N() {
		t.Errorf("merged N = %d, want %d", a.N(), whole.N())
	}
	// Horizons add as disjoint observation windows: the merge drops the
	// unobserved gap between the two traces' clocks (a spans 0–9.1, b
	// spans 9.4–25).
	wantHorizon := (9.1 - 0) + (25 - 9.4)
	if math.Abs(a.Horizon()-wantHorizon) > 1e-12 {
		t.Errorf("merged horizon = %g, want %g", a.Horizon(), wantHorizon)
	}
	// The interarrival accumulators differ by exactly the one boundary
	// interarrival the split drops.
	if a.ia.N() != whole.ia.N()-1 {
		t.Errorf("merged IA count = %d, want %d", a.ia.N(), whole.ia.N()-1)
	}
}

func TestMergeRejectsMismatchedConfigs(t *testing.T) {
	a, _ := NewTraceStats(TraceConfig{Windows: []float64{1}})
	b, _ := NewTraceStats(TraceConfig{Windows: []float64{2}})
	if err := a.Merge(b); !errors.Is(err, haperr.ErrBadParameter) {
		t.Errorf("want ErrBadParameter, got %v", err)
	}
}

func TestBursts(t *testing.T) {
	ts, err := NewTraceStats(TraceConfig{GapThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Two 3-arrival bursts separated by a 10-second gap, then a trailing
	// burst left open (not counted).
	for _, tt := range []float64{0, 0.1, 0.2, 10.2, 10.3, 10.4, 30, 30.1} {
		if err := ts.Add(tt); err != nil {
			t.Fatal(err)
		}
	}
	bs := ts.Bursts()
	if bs.Bursts != 2 {
		t.Fatalf("Bursts = %d, want 2", bs.Bursts)
	}
	if math.Abs(bs.MeanSize-3) > 1e-12 {
		t.Errorf("MeanSize = %g, want 3", bs.MeanSize)
	}
	if math.Abs(bs.MeanBurst-0.2) > 1e-12 {
		t.Errorf("MeanBurst = %g, want 0.2", bs.MeanBurst)
	}
	wantGap := (10.0 + 19.6) / 2
	if math.Abs(bs.MeanGap-wantGap) > 1e-9 {
		t.Errorf("MeanGap = %g, want %g", bs.MeanGap, wantGap)
	}
}

func TestDefaultWindows(t *testing.T) {
	ws := DefaultWindows(0.1, 10000)
	if len(ws) == 0 || len(ws) > 40 {
		t.Fatalf("ladder size %d", len(ws))
	}
	for i := 1; i < len(ws); i++ {
		if ws[i] <= ws[i-1] {
			t.Fatalf("ladder not ascending: %v", ws)
		}
	}
	if ws[0] < 0.4 || ws[len(ws)-1] > 10000.0/8 {
		t.Errorf("ladder out of range: first=%g last=%g", ws[0], ws[len(ws)-1])
	}
	if DefaultWindows(1, 10) != nil {
		t.Error("too-short trace should yield no ladder")
	}
	if DefaultWindows(0, 100) != nil || DefaultWindows(1, 0) != nil {
		t.Error("degenerate inputs should yield no ladder")
	}
}

func TestAnalyze(t *testing.T) {
	if _, err := Analyze([]float64{1, 2, 3}, TraceConfig{}); !errors.Is(err, haperr.ErrBadParameter) {
		t.Errorf("short trace: want ErrBadParameter, got %v", err)
	}
	// Unsorted input is sorted on a copy.
	times := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 0}
	ts, err := Analyze(times, TraceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ts.N() != 10 || math.Abs(ts.Horizon()-9) > 1e-12 {
		t.Errorf("N=%d horizon=%g", ts.N(), ts.Horizon())
	}
	if times[0] != 5 {
		t.Error("Analyze mutated its input")
	}
}
