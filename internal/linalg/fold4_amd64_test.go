package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// onBothPaths returns f's result with the AVX fold on and then forced
// off, restoring the switch when the test ends.
func onBothPaths[T any](t *testing.T, f func() T) (avx, portable T) {
	t.Helper()
	if !hasAVX() {
		t.Skip("this CPU has no AVX; addRows runs its Go loop alone")
	}
	saved := useAVX
	t.Cleanup(func() { useAVX = saved })
	useAVX = true
	avx = f()
	useAVX = false
	portable = f()
	return avx, portable
}

// checkSameBits compares two results element by element, bit for bit. A
// NaN only has to be NaN on both sides: its payload may differ.
func checkSameBits(t *testing.T, name string, avx, portable []float64) {
	t.Helper()
	if len(avx) != len(portable) {
		t.Fatalf("%s: %d elements with AVX, %d without", name, len(avx), len(portable))
	}
	for i, a := range avx {
		p := portable[i]
		if math.Float64bits(a) != math.Float64bits(p) && !(math.IsNaN(a) && math.IsNaN(p)) {
			t.Fatalf("%s: element %d is %v (%#x) with AVX, %v (%#x) without",
				name, i, a, math.Float64bits(a), p, math.Float64bits(p))
		}
	}
}

// edgeValue draws a standard normal most of the time, and otherwise a
// signed zero, a subnormal, a value whose products go subnormal, or an
// infinity.
func edgeValue(r *rand.Rand) float64 {
	edges := []float64{0, math.Copysign(0, -1), 5e-324, -3e-310, 1e-160, -1e-160,
		math.MaxFloat64, math.Inf(1), math.Inf(-1)}
	if r.Intn(6) == 0 {
		return edges[r.Intn(len(edges))]
	}
	return r.NormFloat64()
}

// TestAddRowsAVXMatchesGo runs the row-update kernel on both paths over
// destination lengths on either side of every multiple of four, 0–3 rows
// left over after the four-row groups, both signs, a column offset,
// all-zero coefficient groups and edge values.
func TestAddRowsAVXMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 64, 441}
	for _, n := range lengths {
		for rows := 0; rows <= 11; rows++ {
			for _, sign := range []float64{1, -1} {
				for _, off := range []int{0, 3} {
					ld := n + off + 2
					x := make([]float64, rows*ld)
					for i := range x {
						x[i] = edgeValue(r)
					}
					c := make([]float64, rows)
					for i := range c {
						c[i] = edgeValue(r)
					}
					if rows >= 8 {
						copy(c[4:8], []float64{0, math.Copysign(0, -1), 0, 0}) // a skipped group
					}
					d0 := make([]float64, n)
					for i := range d0 {
						d0[i] = edgeValue(r)
					}
					avx, portable := onBothPaths(t, func() []float64 {
						d := append([]float64(nil), d0...)
						addRows(d, sign, c, x, ld, off)
						return d
					})
					checkSameBits(t, fmt.Sprintf("n=%d rows=%d sign=%v off=%d", n, rows, sign, off), avx, portable)
				}
			}
		}
	}
}

// TestKernelsAVXMatchGo runs Mul, Factor and the multi-column Solve on
// both paths, at sizes around the four-element vector and at the
// 441-phase solve's size.
func TestKernelsAVXMatchGo(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 64, 441} {
		a, b := randMat(r, n, n), randMat(r, n, n+3)
		type out struct{ mul, lu, x []float64 }
		avx, portable := onBothPaths(t, func() out {
			mul := NewDense(n, n+3)
			Mul(mul, a, b)
			f, err := Factor(a)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			return out{mul.A, f.lu.A, f.Solve(b).A}
		})
		checkSameBits(t, fmt.Sprintf("n=%d Mul", n), avx.mul, portable.mul)
		checkSameBits(t, fmt.Sprintf("n=%d Factor", n), avx.lu, portable.lu)
		checkSameBits(t, fmt.Sprintf("n=%d Solve", n), avx.x, portable.x)
	}
}
