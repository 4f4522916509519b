package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-bin histogram on [Lo, Hi) with overflow/underflow
// counters. It supports approximate quantiles and density estimates; use it
// to reproduce the interarrival-time density comparisons (Figures 9–10) from
// simulation output.
type Histogram struct {
	Lo, Hi float64
	bins   []int64
	under  int64
	over   int64
	nan    int64
	n      int64 // non-NaN observations (±Inf count as under/over)
	sum    float64
}

// NewHistogram creates a histogram with nbins uniform bins over [lo, hi).
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if hi <= lo || nbins < 1 {
		panic(fmt.Sprintf("stats: invalid histogram [%v,%v) x%d", lo, hi, nbins))
	}
	return &Histogram{Lo: lo, Hi: hi, bins: make([]int64, nbins)}
}

// Add records one observation. NaN inputs fail both range guards and
// int(NaN) converts to MinInt, so they are counted into a dedicated NaN
// bucket instead of ever reaching the bin index — the simulator's deltas
// feed histograms directly, and the no-panic contract covers them. ±Inf
// land in the under/over counters like any other out-of-range value; they
// do poison the running sum, so Mean reports ±Inf honestly after one.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		h.nan++
		return
	}
	h.n++
	h.sum += x
	switch {
	case x < h.Lo:
		h.under++
	case x >= h.Hi:
		h.over++
	default:
		i := int(float64(len(h.bins)) * (x - h.Lo) / (h.Hi - h.Lo))
		if i == len(h.bins) { // guard FP edge
			i--
		}
		h.bins[i]++
	}
}

// N returns the total observation count, including out-of-range and NaN
// observations. NaNs carry no position, so density, CDF and quantile
// estimates are taken over the non-NaN mass only.
func (h *Histogram) N() int64 { return h.n + h.nan }

// NaN returns the number of NaN observations recorded.
func (h *Histogram) NaN() int64 { return h.nan }

// Merge folds another histogram with identical bounds and bin count into h
// (bin-wise count addition). It panics on mismatched geometry.
func (h *Histogram) Merge(o *Histogram) {
	if h.Lo != o.Lo || h.Hi != o.Hi || len(h.bins) != len(o.bins) {
		panic(fmt.Sprintf("stats: merging mismatched histograms [%v,%v)x%d vs [%v,%v)x%d",
			h.Lo, h.Hi, len(h.bins), o.Lo, o.Hi, len(o.bins)))
	}
	for i, c := range o.bins {
		h.bins[i] += c
	}
	h.under += o.under
	h.over += o.over
	h.nan += o.nan
	h.n += o.n
	h.sum += o.sum
}

// Mean returns the exact sample mean of all non-NaN observations.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.bins)) }

// Count returns the count in bin i.
func (h *Histogram) Count(i int) int64 { return h.bins[i] }

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.bins) }

// Center returns the midpoint of bin i.
func (h *Histogram) Center(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Quantile returns an approximate p-quantile by linear interpolation within
// the containing bin. p is clamped to [0, 1] (NaN clamps to 0), so callers
// feeding computed probabilities always get a value inside [Lo, Hi] and
// never a silent extrapolation.
//
// Convention: the result is the leftmost point whose cumulative mass
// reaches p·n, over the non-NaN observations. Under-range mass maps to Lo
// (so p = 0, or any p covered by the `under` counter — e.g. all mass below
// Lo — returns Lo); when p·n lands exactly on a bin boundary the earlier
// bin wins and its right edge is returned, so runs of empty bins after the
// boundary are not skipped into. p = 1 returns the right edge of the last
// occupied bin, or Hi when over-range mass exists. An empty histogram
// returns 0.
func (h *Histogram) Quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	if !(p > 0) { // also catches NaN
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(h.n)
	c := float64(h.under)
	if target <= c {
		return h.Lo
	}
	for i, b := range h.bins {
		nb := c + float64(b)
		if target <= nb && b > 0 {
			frac := (target - c) / float64(b)
			return h.Lo + (float64(i)+frac)*h.BinWidth()
		}
		c = nb
	}
	return h.Hi
}

// String renders a compact ASCII bar summary.
func (h *Histogram) String() string {
	var b strings.Builder
	maxC := int64(1)
	for _, c := range h.bins {
		if c > maxC {
			maxC = c
		}
	}
	fmt.Fprintf(&b, "hist n=%d under=%d over=%d nan=%d\n", h.N(), h.under, h.over, h.nan)
	for i, c := range h.bins {
		bar := strings.Repeat("#", int(40*c/maxC))
		fmt.Fprintf(&b, "%10.4g %8d %s\n", h.Center(i), c, bar)
	}
	return b.String()
}
