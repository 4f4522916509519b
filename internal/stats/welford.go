// Package stats provides the streaming estimators used by the simulator and
// the experiment harness: running mean/variance, time-weighted averages of
// piecewise-constant processes (queue length, populations), histograms,
// autocorrelation, the index of dispersion for counts, batch-means
// confidence intervals, and the busy-period ("mountain") tracker behind the
// paper's Figure 18.
package stats

import (
	"fmt"
	"math"
)

// Welford accumulates mean and variance of a sample stream in one pass with
// Welford's numerically stable recurrence. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 for fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// HalfWidth95 returns the normal-approximation 95% confidence half-width
// of the mean, 1.96·σ/√n (0 for fewer than 2 samples).
func (w *Welford) HalfWidth95() float64 {
	if w.n < 2 {
		return 0
	}
	return 1.96 * w.Std() / math.Sqrt(float64(w.n))
}

// Max returns the largest observation (0 if empty).
func (w *Welford) Max() float64 { return w.max }

// SCV returns the squared coefficient of variation.
func (w *Welford) SCV() float64 {
	if w.mean == 0 {
		return 0
	}
	return w.Var() / (w.mean * w.mean)
}

// Merge folds other into w (parallel Welford combination).
func (w *Welford) Merge(other *Welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *other
		return
	}
	n1, n2 := float64(w.n), float64(other.n)
	d := other.mean - w.mean
	tot := n1 + n2
	w.m2 += other.m2 + d*d*n1*n2/tot
	w.mean += d * n2 / tot
	w.n += other.n
	if other.min < w.min {
		w.min = other.min
	}
	if other.max > w.max {
		w.max = other.max
	}
}

func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.6g std=%.6g min=%.6g max=%.6g", w.n, w.Mean(), w.Std(), w.min, w.max)
}

// TimeEps is the relative tolerance for non-monotone observation times.
// Merging truncated parallel replications (and any arithmetic that rebuilds
// a clock from sums, as TimeWeighted.Merge does) introduces last-ulp float
// jitter; a clock that steps back by no more than TimeEps·max(1, |t|) is
// clamped forward instead of treated as a caller bug. Gross regressions
// still panic — event order is an engine invariant, not input data.
const TimeEps = 1e-9

// grossRegression reports whether t precedes last by more than the float
// jitter TimeEps tolerates.
func grossRegression(t, last float64) bool {
	scale := math.Max(1, math.Max(math.Abs(t), math.Abs(last)))
	return last-t > TimeEps*scale
}

// TimeWeighted accumulates the time average and maximum of a
// piecewise-constant process such as queue length. Call Update with the new
// value at each change instant; the process is assumed to hold the previous
// value since the prior update.
type TimeWeighted struct {
	start   float64
	last    float64
	lastVal float64
	area    float64
	max     float64
	started bool
}

// Start initialises the process at time t with value v.
func (tw *TimeWeighted) Start(t, v float64) {
	tw.start, tw.last, tw.lastVal = t, t, v
	tw.area = 0
	tw.max = v
	tw.started = true
}

// Update records that the process changes to value v at time t.
func (tw *TimeWeighted) Update(t, v float64) {
	if !tw.started {
		tw.Start(t, v)
		return
	}
	dt := t - tw.last
	if dt < 0 {
		if grossRegression(t, tw.last) {
			panic(fmt.Sprintf("stats: TimeWeighted time went backwards (%v -> %v)", tw.last, t))
		}
		// Float jitter from merged/truncated windows: clamp to monotone.
		t, dt = tw.last, 0
	}
	tw.area += tw.lastVal * dt
	tw.last, tw.lastVal = t, v
	if v > tw.max {
		tw.max = v
	}
}

// Mean returns the time average over [start, lastUpdate].
func (tw *TimeWeighted) Mean() float64 {
	d := tw.last - tw.start
	if d <= 0 {
		return tw.lastVal
	}
	return tw.area / d
}

// Max returns the largest value seen.
func (tw *TimeWeighted) Max() float64 { return tw.max }

// Merge folds another accumulator's observation window into tw, as if the
// two disjoint windows had been observed back to back: integrals and
// elapsed time add, so Mean becomes the combined time average.
// Merge a finished window only (after its closing Update); calling Update
// on the merged result afterwards is not meaningful.
func (tw *TimeWeighted) Merge(o *TimeWeighted) {
	if !o.started {
		return
	}
	if !tw.started {
		*tw = *o
		return
	}
	elapsed := tw.Elapsed() + o.Elapsed()
	tw.area += o.area
	tw.last = tw.start + elapsed
	tw.lastVal = o.lastVal
	if o.max > tw.max {
		tw.max = o.max
	}
}

// Elapsed returns the observed horizon.
func (tw *TimeWeighted) Elapsed() float64 { return tw.last - tw.start }
