package fit

import (
	"math"
	"sync"

	"hap/internal/haperr"
)

// Scratch is the fit layer's reusable working memory: the interarrival
// buffer and the SoA forward/backward/scale/emission arrays the Baum-Welch
// EM core runs in. A zero Scratch is ready to use; passing the same
// Scratch to successive fits (EMOptions.Scratch) makes the hot path
// allocation-free once the buffers have grown to the largest trace seen —
// the property TestFitHotPathAllocs pins and the hap_fit_scratch_*
// counters report.
//
// A Scratch is not safe for concurrent use: parallel multi-start and
// model-selection runs draw per-worker scratches from an internal pool
// instead of sharing one. Buffer contents never influence a result, so a
// pooled scratch needs no reset.
type Scratch struct {
	// x holds the interarrival sequence under fit; w/inv/a0/a1 are the
	// per-sample emission, renormalization-scale and forward buffers of
	// the EM core (the backward pass is fused into the M step and keeps
	// no per-sample state).
	x, w, inv, a0, a1 []float64
}

// interarrivals fills s.x with the (capped) interarrival sequence of the
// sorted timestamps, reusing the buffer across calls. The allocation is
// sized to the capped count, not len(times)-1 — fitting a 10⁶-arrival
// trace with the default 2·10⁵ sample cap must not allocate 8 MB.
func (s *Scratch) interarrivals(times []float64, maxSamples int) ([]float64, error) {
	if len(times) < 8 {
		return nil, haperr.Badf("fit: MMPP2 EM needs at least 8 arrivals, got %d", len(times))
	}
	// Truncate to a contiguous prefix: EM models the sequence's serial
	// correlation, which any strided subsample would distort (halving
	// apparent sojourn lengths doubles the fitted switching rates).
	n := len(times) - 1
	if maxSamples > 0 && n > maxSamples {
		n = maxSamples
	}
	s.x = growBuf(s.x, n)
	for i := 0; i < n; i++ {
		d := times[i+1] - times[i]
		if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
			return nil, haperr.Badf("fit: bad interarrival %g at index %d", d, i+1)
		}
		s.x[i] = d
	}
	return s.x, nil
}

// emBuffers sizes the EM working arrays for n samples and returns them.
func (s *Scratch) emBuffers(n int) (w, inv, a0, a1 []float64) {
	s.w = growBuf(s.w, n)
	s.inv = growBuf(s.inv, n)
	s.a0 = growBuf(s.a0, n)
	s.a1 = growBuf(s.a1, n)
	return s.w, s.inv, s.a0, s.a1
}

// growBuf resizes buf to length n, reusing capacity when it suffices.
// The reuse/grow split is published so an operator can see whether a
// long-running refit loop has reached its allocation-free steady state.
func growBuf(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		obsScratchReuses.Inc()
		return buf[:n]
	}
	obsScratchGrows.Inc()
	return make([]float64, n)
}

// scratchPool serves per-worker scratches to the parallel multi-start and
// model-selection paths.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

func getScratch() *Scratch { return scratchPool.Get().(*Scratch) }

func putScratch(s *Scratch) { scratchPool.Put(s) }
