package dist

import "math/rand"

// splitmix64 advances and hashes a seed; it is used to derive well-separated
// sub-stream seeds from a single master seed so that replications and model
// components (user process, application processes, service times, ...) use
// statistically independent randomness.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Streams deterministically derives independent random streams from one
// master seed. It is safe to create; each returned *rand.Rand is NOT safe
// for concurrent use, as with math/rand generally.
type Streams struct {
	seed uint64
	next uint64
}

// NewStreams returns a stream factory rooted at seed.
func NewStreams(seed int64) *Streams {
	return &Streams{seed: uint64(seed)}
}

// Next returns a fresh independent stream. Successive calls return streams
// seeded by successive splitmix64 outputs of the master seed.
func (s *Streams) Next() *rand.Rand {
	s.next++
	return rand.New(rand.NewSource(int64(splitmix64(s.seed + s.next*0x9e3779b97f4a7c15))))
}

// SubSeed derives the nth well-separated replication seed from a base seed.
// SubSeed(base, n) depends only on (base, n), so parallel replications
// seeded this way reproduce the serial run bit for bit in any execution
// order.
func SubSeed(base int64, n int) int64 {
	return int64(splitmix64(uint64(base) ^ uint64(n)*0xd1342543de82ef95))
}
