package markov

import "fmt"

// Lattice maps multi-dimensional bounded coordinates to dense state indices
// and back. Dimension d takes values 0..Dims[d]-1. HAP's modulating chain
// lives on such a lattice: (x, y₁, ..., y_l) with per-dimension bounds, and
// Solution 0 adds the queue-length dimension z.
type Lattice struct {
	Dims    []int
	strides []int
	n       int
}

// NewLattice builds a lattice with the given per-dimension sizes.
func NewLattice(dims ...int) *Lattice {
	if len(dims) == 0 {
		panic("markov: lattice needs at least one dimension")
	}
	l := &Lattice{Dims: append([]int(nil), dims...), strides: make([]int, len(dims))}
	n := 1
	for d := len(dims) - 1; d >= 0; d-- {
		if dims[d] <= 0 {
			panic(fmt.Sprintf("markov: lattice dimension %d has size %d", d, dims[d]))
		}
		l.strides[d] = n
		n *= dims[d]
	}
	l.n = n
	return l
}

// N returns the total number of lattice points.
func (l *Lattice) N() int { return l.n }

// Index returns the dense index of coords. It panics if coords are out of
// range (programming error, not data error).
func (l *Lattice) Index(coords ...int) int {
	if len(coords) != len(l.Dims) {
		panic("markov: wrong coordinate arity")
	}
	idx := 0
	for d, c := range coords {
		if c < 0 || c >= l.Dims[d] {
			panic(fmt.Sprintf("markov: coordinate %d = %d out of [0,%d)", d, c, l.Dims[d]))
		}
		idx += c * l.strides[d]
	}
	return idx
}

// Coords decodes a dense index into the supplied slice (allocating if nil)
// and returns it.
func (l *Lattice) Coords(idx int, into []int) []int {
	if into == nil {
		into = make([]int, len(l.Dims))
	}
	for d := range l.Dims {
		into[d] = idx / l.strides[d] % l.Dims[d]
	}
	return into
}

// At returns coordinate d of dense index idx without decoding the rest.
func (l *Lattice) At(idx, d int) int {
	return idx / l.strides[d] % l.Dims[d]
}

// Shift returns the dense index displaced by delta along dimension d and
// true, or 0 and false if the move leaves the lattice.
func (l *Lattice) Shift(idx, d, delta int) (int, bool) {
	c := l.At(idx, d)
	nc := c + delta
	if nc < 0 || nc >= l.Dims[d] {
		return 0, false
	}
	return idx + delta*l.strides[d], true
}
