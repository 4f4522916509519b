package dist

import "math/rand"

// expBatchSize is the refill block: big enough to amortize the per-call
// overhead of going through the rand.Source interface (and to keep the
// ziggurat tables hot across the refill loop), small enough that a batch
// is a few cache lines of float64s.
const expBatchSize = 256

// ExpBatch refills a block of unit-exponential draws at a time from an
// underlying stream. The draws come out in exactly the order the stream
// would produce them one by one, so switching a consumer from
// rng.ExpFloat64() to a batch changes nothing about its sample path —
// provided every draw the consumer takes from that stream is exponential
// (a uniform drawn between two batched exponentials would see a stream
// position up to expBatchSize draws ahead).
//
// The simulator's HAP / ON-OFF / Poisson clocks satisfy that proviso by
// construction: after Install they draw nothing but ExpFloat64 from their
// streams, and a station's service stream feeds only its exponential
// server. A HAP-CS source waives it: its exchange continuation draws
// uniforms from its HAP source's stream between refills. Each draw is
// still used once, so the process keeps its law, though not the bits an
// unbatched reading would give.
//
// Not safe for concurrent use, like the *rand.Rand it wraps.
type ExpBatch struct {
	rng *rand.Rand
	i   int
	buf [expBatchSize]float64
}

// NewExpBatch wraps rng in a batched unit-exponential reader. The first
// refill happens on the first draw, so any non-exponential draws taken
// from rng before that keep their unbatched stream positions.
func NewExpBatch(rng *rand.Rand) *ExpBatch {
	return &ExpBatch{rng: rng, i: expBatchSize}
}

// Exp returns the next unit-exponential variate of the underlying stream.
func (b *ExpBatch) Exp() float64 {
	if b.i == expBatchSize {
		b.refill()
	}
	v := b.buf[b.i]
	b.i++
	return v
}

func (b *ExpBatch) refill() {
	for k := range b.buf {
		b.buf[k] = b.rng.ExpFloat64()
	}
	b.i = 0
}
