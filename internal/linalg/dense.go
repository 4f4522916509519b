// Package linalg provides the small dense linear-algebra kernel the
// matrix-geometric HAP/M/1 solver needs: row-major matrices, a
// cache-friendly multiply, LU factorisation with partial pivoting, and
// linear solves for column and row right-hand sides. Go has no
// linear-algebra standard library; these routines are deliberately
// minimal, allocation-conscious and fully tested against closed-form
// cases rather than general-purpose. Every routine runs on the calling
// goroutine.
package linalg

import (
	"fmt"
	"math"
)

// Dense is a row-major n×m matrix.
type Dense struct {
	R, C int
	A    []float64
}

// NewDense allocates an n×m zero matrix.
func NewDense(n, m int) *Dense {
	if n <= 0 || m <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", n, m))
	}
	return &Dense{R: n, C: m, A: make([]float64, n*m)}
}

// Eye returns the n×n identity.
func Eye(n int) *Dense {
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		d.A[i*n+i] = 1
	}
	return d
}

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 { return d.A[i*d.C+j] }

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float64) { d.A[i*d.C+j] = v }

// Row returns row i as a live slice.
func (d *Dense) Row(i int) []float64 { return d.A[i*d.C : (i+1)*d.C] }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	out := NewDense(d.R, d.C)
	copy(out.A, d.A)
	return out
}

// Copy overwrites d with src (shapes must match).
func (d *Dense) Copy(src *Dense) {
	if d.R != src.R || d.C != src.C {
		panic("linalg: Copy shape mismatch")
	}
	copy(d.A, src.A)
}

// Zero clears the matrix.
func (d *Dense) Zero() {
	for i := range d.A {
		d.A[i] = 0
	}
}

// Mul computes dst = a·b. dst must not alias a or b; shapes must match
// or it panics. See addRows for the kernel.
func Mul(dst, a, b *Dense) {
	checkMul(dst, a, b, "Mul")
	dst.Zero()
	mulAdd(dst, a, b)
}

// MulAdd computes dst += a·b with the same constraints as Mul.
func MulAdd(dst, a, b *Dense) {
	checkMul(dst, a, b, "MulAdd")
	mulAdd(dst, a, b)
}

func checkMul(dst, a, b *Dense, op string) {
	if a.C != b.R || dst.R != a.R || dst.C != b.C {
		panic("linalg: " + op + " shape mismatch")
	}
	if dst == a || dst == b {
		panic("linalg: " + op + " aliasing")
	}
}

// mulAdd accumulates dst += a·b one dst row at a time (ikj order, so every
// inner loop streams rows of b and dst).
func mulAdd(dst, a, b *Dense) {
	k, m := a.C, b.C
	for i := 0; i < a.R; i++ {
		addRows(dst.A[i*m:(i+1)*m], 1, a.A[i*k:(i+1)*k], b.A, m, 0)
	}
}

// addRows is the one kernel under Mul, Factor and Solve: it computes
//
//	d += sign · Σ_t c[t] · x[t·ld+off : t·ld+off+len(d)]
//
// i.e. d plus a combination of the first len(c) rows of the row-major
// matrix x (leading dimension ld), each taken from column off on. Rows
// are folded in four at a time, so d is loaded and stored once per four
// multiply-adds; the reslices let the compiler drop the bounds checks.
// sign is ±1, so negating a coefficient is exact and subtracting rows
// costs nothing extra. A group of zero coefficients is skipped.
//
// Where the CPU has AVX (useAVX), fold4AVX folds the first len(d)&^3
// elements four at a time and the Go loop takes the rest. Each element
// still sees the same multiplies and adds in the same order, so both paths
// give the same bits.
func addRows(d []float64, sign float64, c, x []float64, ld, off int) {
	n := len(d)
	nv := 0 // elements the AVX kernel folds
	if useAVX {
		nv = n &^ 3
	}
	t := 0
	for ; t+4 <= len(c); t += 4 {
		c0, c1, c2, c3 := c[t], c[t+1], c[t+2], c[t+3]
		if c0 == 0 && c1 == 0 && c2 == 0 && c3 == 0 {
			continue
		}
		c0, c1, c2, c3 = sign*c0, sign*c1, sign*c2, sign*c3
		base := t*ld + off
		x0 := x[base:][:n]
		x1 := x[base+ld:][:n]
		x2 := x[base+2*ld:][:n]
		x3 := x[base+3*ld:][:n]
		if nv > 0 {
			fold4AVX(d[:nv], c0, c1, c2, c3, &x0[0], &x1[0], &x2[0], &x3[0])
		}
		for j := uint(nv); j < uint(n); j++ { // unsigned: no bounds checks
			d[j] += (c0*x0[j] + c1*x1[j]) + (c2*x2[j] + c3*x3[j])
		}
	}
	for ; t < len(c); t++ {
		ct := sign * c[t]
		if ct == 0 {
			continue
		}
		xt := x[t*ld+off:][:n]
		for j := range d {
			d[j] += ct * xt[j]
		}
	}
}

// Add computes dst = a + b (dst may alias a or b).
func Add(dst, a, b *Dense) {
	if a.R != b.R || a.C != b.C || dst.R != a.R || dst.C != a.C {
		panic("linalg: Add shape mismatch")
	}
	for i := range dst.A {
		dst.A[i] = a.A[i] + b.A[i]
	}
}

// Sub computes dst = a − b (dst may alias a or b).
func Sub(dst, a, b *Dense) {
	if a.R != b.R || a.C != b.C || dst.R != a.R || dst.C != a.C {
		panic("linalg: Sub shape mismatch")
	}
	for i := range dst.A {
		dst.A[i] = a.A[i] - b.A[i]
	}
}

// Scale multiplies every element by s in place.
func (d *Dense) Scale(s float64) {
	for i := range d.A {
		d.A[i] *= s
	}
}

// AddToDiag adds s to every diagonal element of a square matrix — the
// resolvent-building step (sI + M) the interarrival-transform evaluators
// perform once per Laplace argument.
func (d *Dense) AddToDiag(s float64) {
	if d.R != d.C {
		panic("linalg: AddToDiag needs a square matrix")
	}
	for i := 0; i < d.R; i++ {
		d.A[i*d.C+i] += s
	}
}

// MaxAbs returns max |aᵢⱼ|.
func (d *Dense) MaxAbs() float64 {
	var m float64
	for _, v := range d.A {
		if av := math.Abs(v); av > m {
			m = av
		}
	}
	return m
}

// RowSums returns the vector of row sums.
func (d *Dense) RowSums() []float64 {
	out := make([]float64, d.R)
	for i := 0; i < d.R; i++ {
		var s float64
		for _, v := range d.Row(i) {
			s += v
		}
		out[i] = s
	}
	return out
}

// VecMat computes out = v·m for a row vector v (len = m.R).
func VecMat(v []float64, m *Dense) []float64 {
	if len(v) != m.R {
		panic("linalg: VecMat shape mismatch")
	}
	out := make([]float64, m.C)
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		row := m.Row(i)
		for j, mv := range row {
			out[j] += vi * mv
		}
	}
	return out
}

// MatVec computes out = m·v for a column vector v (len = m.C).
func MatVec(m *Dense, v []float64) []float64 {
	if len(v) != m.C {
		panic("linalg: MatVec shape mismatch")
	}
	out := make([]float64, m.R)
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		var s float64
		for j, mv := range row {
			s += mv * v[j]
		}
		out[i] = s
	}
	return out
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
