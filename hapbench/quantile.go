package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); NaN when xs is empty. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func total(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-quantile of an ascending slice:
// the smallest sample with at least a share p of the samples at or below
// it. NaN when s is empty.
func percentile(s []float64, p float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return s[k]
}

// beyond counts the samples of an ascending slice strictly greater than v,
// so samples tied with a percentile's value do not count as beyond it.
func beyond(s []float64, v float64) int {
	return len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
}

// tailPercentiles are the candidates for a reported tail, lowest first.
var tailPercentiles = []float64{0.9, 0.99, 0.999}

// tail applies the ten-beyond rule to an ascending slice: it returns the
// highest of tailPercentiles with at least ten samples strictly beyond its
// value, and ok=false when even the lowest has fewer.
func tail(s []float64) (p, v float64, ok bool) {
	for _, q := range tailPercentiles {
		x := percentile(s, q)
		if beyond(s, x) < 10 {
			break
		}
		p, v, ok = q, x, true
	}
	return p, v, ok
}

// studentT returns t such that P(|T| <= t) = conf for Student's t with
// df >= 1 degrees of freedom, by bisection on the closed-form integer-df
// distribution function (Abramowitz & Stegun 26.7.3-4).
func studentT(conf float64, df int) float64 {
	lo, hi := 0.0, 1.0
	for tAbsCDF(hi, df) < conf {
		hi *= 2
	}
	for i := 0; i < 200 && hi-lo > 1e-12*hi; i++ {
		mid := (lo + hi) / 2
		if tAbsCDF(mid, df) < conf {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// tAbsCDF is P(|T| <= t) for Student's t with df degrees of freedom.
func tAbsCDF(t float64, df int) float64 {
	theta := math.Atan(t / math.Sqrt(float64(df)))
	c2 := math.Cos(theta) * math.Cos(theta)
	if df%2 == 1 {
		sum, term := 0.0, math.Cos(theta)
		for k := 3; k <= df; k += 2 {
			sum += term
			term *= c2 * float64(k-1) / float64(k)
		}
		return 2 / math.Pi * (theta + math.Sin(theta)*sum)
	}
	sum, term := 0.0, 1.0
	for k := 2; k <= df; k += 2 {
		sum += term
		term *= c2 * float64(k-1) / float64(k)
	}
	return math.Sin(theta) * sum
}
