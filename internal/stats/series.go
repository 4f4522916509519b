package stats

import "math"

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
