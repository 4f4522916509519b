package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func wantClose(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

func randMat(r *rand.Rand, n, m int) *Dense {
	d := NewDense(n, m)
	for i := range d.A {
		d.A[i] = r.NormFloat64()
	}
	return d
}

func TestMulSmallKnown(t *testing.T) {
	a := NewDense(2, 3)
	copy(a.A, []float64{1, 2, 3, 4, 5, 6})
	b := NewDense(3, 2)
	copy(b.A, []float64{7, 8, 9, 10, 11, 12})
	c := NewDense(2, 2)
	Mul(c, a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		wantClose(t, "c", c.A[i], w, 1e-12)
	}
}

func TestMulIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := randMat(r, 7, 7)
	c := NewDense(7, 7)
	Mul(c, a, Eye(7))
	for i := range a.A {
		wantClose(t, "aI", c.A[i], a.A[i], 1e-14)
	}
	Mul(c, Eye(7), a)
	for i := range a.A {
		wantClose(t, "Ia", c.A[i], a.A[i], 1e-14)
	}
}

func TestMulAddAccumulates(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a, b := randMat(r, 5, 6), randMat(r, 6, 4)
	c1 := NewDense(5, 4)
	Mul(c1, a, b)
	c2 := NewDense(5, 4)
	MulAdd(c2, a, b)
	MulAdd(c2, a, b)
	for i := range c1.A {
		wantClose(t, "2ab", c2.A[i], 2*c1.A[i], 1e-12)
	}
}

func TestMulAliasPanics(t *testing.T) {
	a := Eye(3)
	defer func() {
		if recover() == nil {
			t.Error("aliasing must panic")
		}
	}()
	Mul(a, a, Eye(3))
}

func TestAddSubScale(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a, b := randMat(r, 4, 4), randMat(r, 4, 4)
	c := NewDense(4, 4)
	Add(c, a, b)
	Sub(c, c, b)
	for i := range a.A {
		wantClose(t, "a+b-b", c.A[i], a.A[i], 1e-12)
	}
	c.Scale(2)
	for i := range a.A {
		wantClose(t, "2a", c.A[i], 2*a.A[i], 1e-12)
	}
}

func TestLUSolveVec(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	n := 20
	a := randMat(r, n, n)
	for i := 0; i < n; i++ { // diagonally dominant → well conditioned
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = r.NormFloat64()
	}
	b := MatVec(a, xTrue)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.SolveVec(b)
	for i := range x {
		wantClose(t, "x", x[i], xTrue[i], 1e-9)
	}
}

func TestLUSolveMatrixAndInverse(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n := 15
	a := randMat(r, n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := f.Inverse()
	prod := NewDense(n, n)
	Mul(prod, a, inv)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			wantClose(t, "A·A⁻¹", prod.At(i, j), want, 1e-9)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDense(3, 3)
	copy(a.A, []float64{1, 2, 3, 2, 4, 6, 1, 0, 1}) // row2 = 2·row1
	if _, err := Factor(a); err == nil {
		t.Error("expected ErrSingular")
	}
}

func TestVecMatAndMatVec(t *testing.T) {
	a := NewDense(2, 3)
	copy(a.A, []float64{1, 2, 3, 4, 5, 6})
	v := VecMat([]float64{1, 2}, a) // [9, 12, 15]
	for i, w := range []float64{9, 12, 15} {
		wantClose(t, "vM", v[i], w, 1e-12)
	}
	u := MatVec(a, []float64{1, 1, 1}) // [6, 15]
	for i, w := range []float64{6, 15} {
		wantClose(t, "Mv", u[i], w, 1e-12)
	}
	wantClose(t, "dot", Dot([]float64{1, 2, 3}, []float64{4, 5, 6}), 32, 1e-12)
}

func TestRowSumsAndMaxAbs(t *testing.T) {
	a := NewDense(2, 2)
	copy(a.A, []float64{1, -5, 2, 3})
	rs := a.RowSums()
	wantClose(t, "rs0", rs[0], -4, 1e-12)
	wantClose(t, "rs1", rs[1], 5, 1e-12)
	wantClose(t, "maxabs", a.MaxAbs(), 5, 1e-12)
}

// Property: (AB)C == A(BC) on random small matrices.
func TestQuickMulAssociative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randMat(r, 4, 5), randMat(r, 5, 3), randMat(r, 3, 6)
		ab := NewDense(4, 3)
		Mul(ab, a, b)
		abc1 := NewDense(4, 6)
		Mul(abc1, ab, c)
		bc := NewDense(5, 6)
		Mul(bc, b, c)
		abc2 := NewDense(4, 6)
		Mul(abc2, a, bc)
		for i := range abc1.A {
			if math.Abs(abc1.A[i]-abc2.A[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Solve then multiply returns the right-hand side.
func TestQuickLURoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + int(uint(seed)%8)
		a := randMat(r, n, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(2*n))
		}
		lu, err := Factor(a)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x := lu.SolveVec(b)
		back := MatVec(a, x)
		for i := range b {
			if math.Abs(back[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAddToDiag(t *testing.T) {
	d := NewDense(3, 3)
	d.Set(0, 1, 2)
	d.Set(2, 2, -4)
	d.AddToDiag(1.5)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			switch {
			case i == 0 && j == 1:
				want = 2
			case i == j:
				want = 1.5
			}
			if i == 2 && j == 2 {
				want = -4 + 1.5
			}
			if got := d.At(i, j); got != want {
				t.Errorf("At(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("AddToDiag on a non-square matrix did not panic")
		}
	}()
	NewDense(2, 3).AddToDiag(1)
}

// naiveMul is the textbook triple loop the blocked kernels are checked
// against.
func naiveMul(a, b *Dense) *Dense {
	out := NewDense(a.R, b.C)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.C; j++ {
			var s float64
			for k := 0; k < a.C; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// TestMulMatchesNaive covers every remainder of the inner dimension modulo
// the kernel's four-row unroll, and groups of zero coefficients it skips.
func TestMulMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 33, 64} {
		a, b := randMat(r, 6, k), randMat(r, k, 5)
		for j := 0; j < k && j < 4; j++ {
			a.Set(2, j, 0) // row 2 starts with a zero group
		}
		want := naiveMul(a, b)
		got := NewDense(6, 5)
		Mul(got, a, b)
		for i := range want.A {
			wantClose(t, fmt.Sprintf("k=%d AB", k), got.A[i], want.A[i], 1e-12)
		}
	}
}

// TestLUNeedsPivoting factors matrices that are not diagonally dominant,
// across sizes on both sides of the four-column panel, and checks
// A·X = B for a multi-column right-hand side, A·x = b and x·A = b.
func TestLUNeedsPivoting(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 37, 64} {
		a := randMat(r, n, n)
		if n > 1 {
			a.Set(0, 0, 0) // force a row swap in the first panel
		}
		f, err := Factor(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		b := randMat(r, n, 3)
		x := f.Solve(b)
		ax := NewDense(n, 3)
		Mul(ax, a, x)
		for i := range b.A {
			wantClose(t, fmt.Sprintf("n=%d AX", n), ax.A[i], b.A[i], 1e-9)
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		back := MatVec(a, f.SolveVec(v))
		left := VecMat(f.SolveVecLeft(v), a)
		for i := range v {
			wantClose(t, fmt.Sprintf("n=%d Ax", n), back[i], v[i], 1e-9)
			wantClose(t, fmt.Sprintf("n=%d xA", n), left[i], v[i], 1e-9)
		}
	}
}
