package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Categorical is a discrete sampler over indices 0..n-1 with fixed
// relative weights, built once and immutable afterwards — safe to share
// across goroutines as long as each caller supplies its own *rand.Rand.
// The network layer uses one per routing node to pick among weighted
// out-links; a single uniform draw per sample keeps the stream consumption
// predictable, which the bit-identical determinism contract relies on.
type Categorical struct {
	cum []float64 // strictly increasing cumulative weights; cum[n-1] = total
}

// NewCategorical builds a sampler over the given positive weights. Weights
// need not sum to one — they are relative probabilities.
func NewCategorical(weights []float64) (*Categorical, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("dist: categorical needs at least one weight")
	}
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("dist: categorical weight %d must be positive and finite (got %v)", i, w)
		}
		total += w
		cum[i] = total
	}
	return &Categorical{cum: cum}, nil
}

// Sample draws one category index using a single uniform variate from r.
// The scan is linear; routing fan-outs are small (2–4 links), where a
// branchy alias table would cost more than it saves.
func (c *Categorical) Sample(r *rand.Rand) int {
	u := r.Float64() * c.cum[len(c.cum)-1]
	for i, cw := range c.cum {
		if u < cw {
			return i
		}
	}
	return len(c.cum) - 1 // u == total (possible at the closed right edge)
}
