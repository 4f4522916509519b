package linalg

import (
	"errors"
	"math"
)

// ErrSingular reports a numerically singular factorisation.
var ErrSingular = errors.New("linalg: matrix is singular")

// LU holds an LU factorisation with partial pivoting: P·A = L·U.
type LU struct {
	lu  *Dense
	piv []int
}

// Factor computes the LU factorisation of the square matrix a (which is
// copied, not modified). It works on panels of four columns: a panel is
// pivoted and eliminated column by column, its rows of U are finished
// with the panel's own multipliers, and then every row below takes the
// panel's four-row update in one addRows pass.
func Factor(a *Dense) (*LU, error) {
	if a.R != a.C {
		return nil, errors.New("linalg: LU needs a square matrix")
	}
	n := a.R
	lu := a.Clone()
	A := lu.A
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for c0 := 0; c0 < n; c0 += 4 {
		c1 := min(c0+4, n) // the panel is columns [c0, c1)
		for col := c0; col < c1; col++ {
			// Pivot search.
			p := col
			max := math.Abs(A[col*n+col])
			for r := col + 1; r < n; r++ {
				if v := math.Abs(A[r*n+col]); v > max {
					max, p = v, r
				}
			}
			if max == 0 {
				return nil, ErrSingular
			}
			if p != col {
				rp, rc := lu.Row(p), lu.Row(col)
				for j := range rp {
					rp[j], rc[j] = rc[j], rp[j]
				}
				piv[p], piv[col] = piv[col], piv[p]
			}
			// Multipliers, applied to the rest of the panel only.
			d := A[col*n+col]
			for r := col + 1; r < n; r++ {
				f := A[r*n+col] / d
				A[r*n+col] = f
				for j := col + 1; j < c1; j++ {
					A[r*n+j] -= f * A[col*n+j]
				}
			}
		}
		if c1 == n {
			break
		}
		// The panel's rows of U right of the panel, then the trailing rows.
		panel := A[c0*n:]
		for r := c0 + 1; r < n; r++ {
			addRows(A[r*n+c1:(r+1)*n], -1, A[r*n+c0:r*n+min(r, c1)], panel, n, c1)
		}
	}
	return &LU{lu: lu, piv: piv}, nil
}

// SolveVec solves A·x = b, returning x.
func (f *LU) SolveVec(b []float64) []float64 {
	n := f.lu.R
	if len(b) != n {
		panic("linalg: SolveVec length mismatch")
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (L has implicit unit diagonal).
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		var s float64
		for j := 0; j < i; j++ {
			s += row[j] * x[j]
		}
		x[i] -= s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		var s float64
		for j := i + 1; j < n; j++ {
			s += row[j] * x[j]
		}
		x[i] = (x[i] - s) / row[i]
	}
	return x
}

// Solve computes X solving A·X = B (all columns at once, row by row of
// X through addRows). B is not modified.
func (f *LU) Solve(b *Dense) *Dense {
	n := f.lu.R
	if b.R != n {
		panic("linalg: Solve shape mismatch")
	}
	m := b.C
	x := NewDense(n, m)
	// Apply row pivots of A to B's rows.
	for i := 0; i < n; i++ {
		copy(x.Row(i), b.Row(f.piv[i]))
	}
	// Forward substitution: row i −= Σ_{j<i} L_ij·row j.
	for i := 1; i < n; i++ {
		addRows(x.Row(i), -1, f.lu.Row(i)[:i], x.A, m, 0)
	}
	// Back substitution: row i −= Σ_{j>i} U_ij·row j, then ÷ U_ii.
	for i := n - 1; i >= 0; i-- {
		urow := f.lu.Row(i)
		xi := x.Row(i)
		addRows(xi, -1, urow[i+1:], x.A[(i+1)*m:], m, 0)
		d := urow[i]
		for c := range xi {
			xi[c] /= d
		}
	}
	return x
}

// solveVecT solves Aᵀ·y = b using the LU of A: Aᵀ = Uᵀ·Lᵀ·P, so solve
// Uᵀ·w = b (forward), Lᵀ·v = w (backward), y = Pᵀ·v.
func (f *LU) solveVecT(b []float64) []float64 {
	n := f.lu.R
	w := make([]float64, n)
	copy(w, b)
	// Uᵀ is lower triangular with U's diagonal.
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += f.lu.At(j, i) * w[j]
		}
		w[i] = (w[i] - s) / f.lu.At(i, i)
	}
	// Lᵀ is upper triangular with unit diagonal.
	for i := n - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += f.lu.At(j, i) * w[j]
		}
		w[i] -= s
	}
	// Undo pivoting: w holds v indexed by pivoted rows of A.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[f.piv[i]] = w[i]
	}
	return y
}

// SolveVecLeft solves the row-vector system x·A = b, i.e. Aᵀ·xᵀ = bᵀ.
func (f *LU) SolveVecLeft(b []float64) []float64 { return f.solveVecT(b) }

// Inverse returns A⁻¹.
func (f *LU) Inverse() *Dense {
	return f.Solve(Eye(f.lu.R))
}
