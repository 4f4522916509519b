//go:build !amd64

package linalg

// useAVX is false off amd64: addRows runs its Go loop alone.
const useAVX = false

func fold4AVX(d []float64, c0, c1, c2, c3 float64, x0, x1, x2, x3 *float64) {
	panic("linalg: no AVX kernel on this architecture")
}
