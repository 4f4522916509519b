package sim

import (
	"math"
	"math/bits"
)

// sched is the future event list: a monotone radix heap keyed on the bit
// pattern of the event time. For t >= 0 the IEEE-754 bits order exactly
// like the values, so integer comparisons on keys replace float ones and
// the structure needs no width, threshold or tuning at any pending size.
//
// Bucket 0 holds the events whose key equals last, the key of the last
// extracted minimum; bucket i (1..64) holds the events whose key first
// differs from last at bit i-1. Every key in bucket i is smaller than
// every key in bucket j > i, so the minimum lives in the lowest non-empty
// bucket. When bucket 0 is empty, pop takes that bucket's minimum key as
// the new last and redistributes its events; each lands in a strictly
// lower bucket, so an event moves at most 64 times between push and pop.
//
// Pop order is ascending (t, seq). Every bucket stays in ascending seq
// order: a push appends the largest seq yet issued, and a redistribution
// splits the lowest non-empty bucket stably into buckets that are all
// empty. Bucket 0 therefore pops FIFO from its head index.
//
// Events are stored by value in plain slices, so a push allocates only
// when a bucket outgrows its capacity, never per event.
//
// Precondition: every pushed time is >= the last popped time, with no
// NaN. Engine.scheduleEv enforces it.
type sched struct {
	bkt  [65][]event
	head int    // next event to pop from bkt[0]
	mask uint64 // bit i-1 set when bkt[i] is non-empty, i in 1..64
	last uint64 // key of the last extracted minimum
	n    int
}

// schedBucketCap is each bucket's first capacity. Growing 65 buckets from
// empty instead would double a single-source run's allocations.
const schedBucketCap = 64

// newSched pre-sizes every bucket from one backing array. A bucket that
// outgrows its slice reallocates on its own; the three-index slices keep
// it from appending into its neighbour's region.
func newSched() sched {
	var s sched
	buf := make([]event, len(s.bkt)*schedBucketCap)
	for i := range s.bkt {
		s.bkt[i] = buf[i*schedBucketCap : i*schedBucketCap : (i+1)*schedBucketCap]
	}
	return s
}

// timeKey maps a time t >= 0 to its radix key; clearing the sign bit
// sends -0 to the key of +0.
func timeKey(t float64) uint64 { return math.Float64bits(math.Abs(t)) }

func (s *sched) len() int { return s.n }

// buckets reports the number of non-empty radix buckets (0–65) for the
// scheduler gauge.
func (s *sched) buckets() int {
	n := bits.OnesCount64(s.mask)
	if s.head < len(s.bkt[0]) {
		n++
	}
	return n
}

func (s *sched) push(e event) {
	i := bits.Len64(timeKey(e.t) ^ s.last)
	s.bkt[i] = append(s.bkt[i], e)
	if i > 0 {
		s.mask |= 1 << (i - 1)
	}
	s.n++
}

func (s *sched) pop() event {
	if s.head == len(s.bkt[0]) {
		s.bkt[0] = s.bkt[0][:0]
		s.head = 0
		s.redistribute()
	}
	e := s.bkt[0][s.head]
	s.head++
	s.n--
	return e
}

// redistribute empties the lowest non-empty bucket into the lower ones,
// re-keyed on its minimum, which becomes last. Called with bucket 0 empty
// and at least one event pending.
func (s *sched) redistribute() {
	i := bits.TrailingZeros64(s.mask) + 1
	b := s.bkt[i]
	m := timeKey(b[0].t)
	for j := 1; j < len(b); j++ {
		if k := timeKey(b[j].t); k < m {
			m = k
		}
	}
	s.last = m
	s.mask &^= 1 << (i - 1)
	for j := range b {
		d := bits.Len64(timeKey(b[j].t) ^ m)
		s.bkt[d] = append(s.bkt[d], b[j])
		if d > 0 {
			s.mask |= 1 << (d - 1)
		}
	}
	s.bkt[i] = b[:0]
}
