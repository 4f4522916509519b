package markov

import "math"

// TruncatedPoisson returns the Poisson(m) distribution truncated to
// {0..kmax} and renormalised — the stationary law of an M/M/∞ population
// admission-capped at kmax (Erlang-loss insensitivity).
func TruncatedPoisson(m float64, kmax int) []float64 {
	pi := make([]float64, kmax+1)
	var sum float64
	for k := 0; k <= kmax; k++ {
		pi[k] = math.Exp(float64(k)*math.Log(m) - m - lgamma(k+1))
		sum += pi[k]
	}
	for k := range pi {
		pi[k] /= sum
	}
	return pi
}

// MM1KDistribution returns the stationary law of the M/M/1/K queue
// (capacity K including the one in service).
func MM1KDistribution(lambda, mu float64, K int) []float64 {
	rho := lambda / mu
	pi := make([]float64, K+1)
	if rho == 1 {
		for i := range pi {
			pi[i] = 1 / float64(K+1)
		}
		return pi
	}
	c := (1 - rho) / (1 - math.Pow(rho, float64(K+1)))
	p := c
	for i := range pi {
		pi[i] = p
		p *= rho
	}
	return pi
}

func lgamma(k int) float64 {
	lg, _ := math.Lgamma(float64(k))
	return lg
}
