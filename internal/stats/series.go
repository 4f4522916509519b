package stats

import "math"

// Autocorrelation returns the lag-k autocorrelation estimates of xs for
// k = 0..maxLag. Correlated interarrival sequences are the mechanism behind
// HAP's burstiness; the paper notes Solutions 1 and 2 destroy exactly this
// correlation.
func Autocorrelation(xs []float64, maxLag int) []float64 {
	n := len(xs)
	if maxLag >= n {
		maxLag = n - 1
	}
	if maxLag < 0 {
		return nil
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	var c0 float64
	for _, x := range xs {
		d := x - mean
		c0 += d * d
	}
	out := make([]float64, maxLag+1)
	if c0 == 0 {
		out[0] = 1
		return out
	}
	for k := 0; k <= maxLag; k++ {
		var ck float64
		for i := 0; i+k < n; i++ {
			ck += (xs[i] - mean) * (xs[i+k] - mean)
		}
		out[k] = ck / c0
	}
	return out
}

// IDC estimates the index of dispersion for counts of a point process whose
// event times are ts (sorted), at window length win: Var(N(win))/E[N(win)].
// A Poisson process has IDC 1 at every window; HAP's IDC grows with the
// window, reflecting long-range rate modulation.
func IDC(ts []float64, win float64) float64 {
	if len(ts) == 0 || win <= 0 {
		return 0
	}
	horizon := ts[len(ts)-1]
	n := int(horizon / win)
	if n < 2 {
		return 0
	}
	counts := make([]float64, n)
	j := 0
	for i := 0; i < n; i++ {
		hi := float64(i+1) * win
		for j < len(ts) && ts[j] < hi {
			counts[i]++
			j++
		}
	}
	var w Welford
	for _, c := range counts {
		w.Add(c)
	}
	if w.Mean() == 0 {
		return 0
	}
	return w.Var() / w.Mean()
}

// IDCCurve evaluates IDC at each window in wins.
func IDCCurve(ts []float64, wins []float64) []float64 {
	out := make([]float64, len(wins))
	for i, w := range wins {
		out[i] = IDC(ts, w)
	}
	return out
}

// PeakToMean returns max/mean of a series, a crude burstiness indicator.
func PeakToMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, max float64
	for _, x := range xs {
		sum += x
		if x > max {
			max = x
		}
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	return max / mean
}

// BatchMeans estimates a confidence half-width for the mean of a correlated
// stationary series by the method of batch means with nbatch batches. It
// returns the grand mean and the half-width at ~95% confidence (normal
// approximation; appropriate for nbatch >= 20).
func BatchMeans(xs []float64, nbatch int) (mean, halfWidth float64) {
	if nbatch < 2 || len(xs) < nbatch {
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		return w.Mean(), math.Inf(1)
	}
	size := len(xs) / nbatch
	var bw Welford
	for b := 0; b < nbatch; b++ {
		var s float64
		for i := b * size; i < (b+1)*size; i++ {
			s += xs[i]
		}
		bw.Add(s / float64(size))
	}
	return bw.Mean(), bw.HalfWidth95()
}

// RunningMean records the cumulative running mean of a stream at a bounded
// number of checkpoints, reproducing the convergence traces of Figure 13.
type RunningMean struct {
	every int64
	n     int64
	sum   float64
	Xs    []float64 // observation index at each checkpoint
	Ys    []float64 // running mean at each checkpoint
}

// NewRunningMean records a checkpoint every `every` observations.
func NewRunningMean(every int64) *RunningMean {
	if every < 1 {
		every = 1
	}
	return &RunningMean{every: every}
}

// Add records one observation.
func (rm *RunningMean) Add(x float64) {
	rm.n++
	rm.sum += x
	if rm.n%rm.every == 0 {
		rm.Xs = append(rm.Xs, float64(rm.n))
		rm.Ys = append(rm.Ys, rm.sum/float64(rm.n))
	}
}

// Mean returns the final running mean.
func (rm *RunningMean) Mean() float64 {
	if rm.n == 0 {
		return 0
	}
	return rm.sum / float64(rm.n)
}

// FluctuationSpan returns (max-min)/final of the running-mean trace after
// discarding the first skip checkpoints — a scalar summary of how unsettled
// the simulation remains (HAP ≫ Poisson in Figure 13).
func (rm *RunningMean) FluctuationSpan(skip int) float64 {
	if len(rm.Ys) <= skip+1 || rm.Mean() == 0 {
		return 0
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, y := range rm.Ys[skip:] {
		if y < min {
			min = y
		}
		if y > max {
			max = y
		}
	}
	return (max - min) / rm.Mean()
}
