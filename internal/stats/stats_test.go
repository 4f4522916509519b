package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func wantClose(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	wantClose(t, "mean", w.Mean(), 5, 1e-12)
	wantClose(t, "var", w.Var(), 32.0/7, 1e-12)
	wantClose(t, "min", w.Min(), 2, 0)
	wantClose(t, "max", w.Max(), 9, 0)
	if w.N() != 8 {
		t.Errorf("N = %d", w.N())
	}
}

func TestWelfordMergeEqualsSequential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var all, a, b Welford
	for i := 0; i < 1000; i++ {
		x := r.NormFloat64()*3 + 1
		all.Add(x)
		if i < 400 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	wantClose(t, "merged mean", a.Mean(), all.Mean(), 1e-10)
	wantClose(t, "merged var", a.Var(), all.Var(), 1e-8)
	if a.N() != all.N() {
		t.Error("merged count mismatch")
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Merge(&b) // no-op
	if a.N() != 1 {
		t.Error("merge with empty changed count")
	}
	b.Merge(&a)
	if b.N() != 1 || b.Mean() != 1 {
		t.Error("merge into empty failed")
	}
}

func TestTimeWeightedQueueExample(t *testing.T) {
	// Queue holds 0 on [0,1), 2 on [1,3), 1 on [3,4): mean = (0+4+1)/4.
	var tw TimeWeighted
	tw.Start(0, 0)
	tw.Update(1, 2)
	tw.Update(3, 1)
	tw.Update(4, 0)
	wantClose(t, "time mean", tw.Mean(), 1.25, 1e-12)
	wantClose(t, "max", tw.Max(), 2, 0)
	wantClose(t, "elapsed", tw.Elapsed(), 4, 0)
	// Var: E[X²] = (0+ 4*2 + 1)/4 = 2.25; Var = 2.25 - 1.5625
	wantClose(t, "time var", tw.Var(), 2.25-1.5625, 1e-12)
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	var tw TimeWeighted
	tw.Start(5, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tw.Update(4, 2)
}

func TestHistogramDensityIntegratesToOne(t *testing.T) {
	h := NewHistogram(0, 5, 50)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		h.Add(r.ExpFloat64()) // rate 1; mass beyond 5 is ~e^-5
	}
	var integral float64
	for i := 0; i < h.Bins(); i++ {
		integral += h.Density(i) * h.BinWidth()
	}
	wantClose(t, "∫density", integral, 1-math.Exp(-5), 0.01)
	// Density in the first bin should match the bin-averaged exp density.
	bw := h.BinWidth()
	wantClose(t, "density(0)", h.Density(0), (1-math.Exp(-bw))/bw, 0.02)
	wantClose(t, "mean", h.Mean(), 1, 0.02)
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 10, 100)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i%10) + 0.5)
	}
	q := h.Quantile(0.5)
	if q < 4 || q > 6 {
		t.Errorf("median = %v, want ~5", q)
	}
	if h.Quantile(0) != 0 {
		t.Errorf("0-quantile = %v", h.Quantile(0))
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-5)
	h.Add(2)
	h.Add(0.5)
	if h.N() != 3 {
		t.Error("N must count out-of-range")
	}
	if h.CDFAt(3) != 2.0/3 { // under + in-range over N
		t.Errorf("CDFAt(last) = %v", h.CDFAt(3))
	}
}

func TestIDCPoissonIsOne(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var ts []float64
	t0 := 0.0
	for i := 0; i < 200000; i++ {
		t0 += r.ExpFloat64() / 5
		ts = append(ts, t0)
	}
	for _, win := range []float64{0.5, 2, 10} {
		idc := IDC(ts, win)
		if idc < 0.9 || idc > 1.1 {
			t.Errorf("Poisson IDC(win=%v) = %v, want ~1", win, idc)
		}
	}
}

func TestIDCModulatedExceedsOne(t *testing.T) {
	// ON/OFF modulated Poisson: rate 10 for 50 time units, 0 for 50, repeat.
	r := rand.New(rand.NewSource(5))
	var ts []float64
	for cycle := 0; cycle < 200; cycle++ {
		base := float64(cycle) * 100
		t0 := base
		for {
			t0 += r.ExpFloat64() / 10
			if t0 >= base+50 {
				break
			}
			ts = append(ts, t0)
		}
	}
	idc := IDC(ts, 20)
	if idc < 5 {
		t.Errorf("modulated IDC = %v, want >> 1", idc)
	}
}

func TestIDCEdgeCases(t *testing.T) {
	if IDC(nil, 1) != 0 || IDC([]float64{1}, 0) != 0 || IDC([]float64{1, 2}, 100) != 0 {
		t.Error("degenerate IDC should be 0")
	}
}

func TestRunningMeanTrace(t *testing.T) {
	rm := NewRunningMean(10)
	for i := 1; i <= 100; i++ {
		rm.Add(float64(i))
	}
	wantClose(t, "final mean", rm.Mean(), 50.5, 1e-12)
	if len(rm.Ys) != 10 {
		t.Fatalf("checkpoints = %d, want 10", len(rm.Ys))
	}
	wantClose(t, "first checkpoint", rm.Ys[0], 5.5, 1e-12)
	if rm.FluctuationSpan(0) <= 0 {
		t.Error("monotone running mean should have positive span")
	}
}

func TestBusyTrackerBasic(t *testing.T) {
	var bt BusyTracker
	bt.Keep = true
	// idle [0,1), busy [1,4) peaking at 3, idle [4,6), busy [6,7) peak 1.
	bt.Observe(0, 0)
	bt.Observe(1, 1)
	bt.Observe(2, 3)
	bt.Observe(3, 2)
	bt.Observe(4, 0)
	bt.Observe(6, 1)
	bt.Observe(7, 0)
	if bt.Mountains() != 2 {
		t.Fatalf("mountains = %d", bt.Mountains())
	}
	wantClose(t, "busy mean", bt.Busy.Mean(), 2, 1e-12)
	wantClose(t, "idle mean", bt.Idle.Mean(), 1.5, 1e-12)
	wantClose(t, "height mean", bt.Height.Mean(), 2, 1e-12)
	wantClose(t, "busy fraction", bt.BusyFraction(), 2.0/3.5, 1e-12)
	longest, tallest := bt.Peak()
	wantClose(t, "longest", longest.Length(), 3, 1e-12)
	if tallest.Height != 3 {
		t.Errorf("tallest height = %d", tallest.Height)
	}
}

func TestBusyTrackerStartsBusy(t *testing.T) {
	var bt BusyTracker
	bt.Observe(0, 2)
	bt.Observe(5, 0)
	if bt.Mountains() != 1 {
		t.Fatal("should complete one busy period")
	}
	wantClose(t, "busy", bt.Busy.Mean(), 5, 1e-12)
}

func TestBusyTrackerRetentionCap(t *testing.T) {
	var bt BusyTracker
	bt.Keep = true
	bt.MaxRetained = 2
	tt := 0.0
	for i := 0; i < 5; i++ {
		bt.Observe(tt, 1)
		bt.Observe(tt+1, 0)
		tt += 2
	}
	if len(bt.Periods) != 2 {
		t.Errorf("retained %d periods, want cap 2", len(bt.Periods))
	}
	if bt.Mountains() != 5 {
		t.Errorf("mountains = %d, want 5 (stats uncapped)", bt.Mountains())
	}
}

// Property: Welford matches the naive two-pass computation.
func TestQuickWelfordMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var w Welford
		var sum float64
		for _, x := range clean {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		var ss float64
		for _, x := range clean {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(len(clean)-1)
		scale := math.Max(1, math.Abs(mean))
		return math.Abs(w.Mean()-mean) < 1e-9*scale &&
			math.Abs(w.Var()-naiveVar) < 1e-6*math.Max(1, naiveVar)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: busy fraction is always within [0,1] and mountains never exceed
// the number of busy→idle transitions.
func TestQuickBusyTrackerInvariants(t *testing.T) {
	f := func(deltas []int8) bool {
		var bt BusyTracker
		tt, n := 0.0, 0
		transitions := 0
		prev := 0
		bt.Observe(0, 0)
		for _, d := range deltas {
			tt += 1
			n += int(d % 3)
			if n < 0 {
				n = 0
			}
			if prev > 0 && n == 0 {
				transitions++
			}
			prev = n
			bt.Observe(tt, n)
		}
		bf := bt.BusyFraction()
		return bf >= 0 && bf <= 1 && int(bt.Mountains()) <= transitions+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
