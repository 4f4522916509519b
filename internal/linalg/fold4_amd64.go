package linalg

// useAVX selects the AVX four-row fold in addRows. It is set once, when
// the package is initialised, from what the CPU and the OS support.
var useAVX = hasAVX()

// hasAVX reports whether the CPU has AVX and the OS saves the YMM
// registers across context switches (CPUID.1:ECX.OSXSAVE and .AVX, then
// XCR0 bits 1 and 2, the XMM and YMM state).
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx := cpuid1ECX(); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	return xcr0()&6 == 6
}

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xcr0 returns the low word of extended control register 0.
func xcr0() uint32

// fold4AVX computes d[j] += (c0·x0[j] + c1·x1[j]) + (c2·x2[j] + c3·x3[j])
// for every j of d, four elements per AVX vector: VMULPD and VADDPD in
// exactly that order, with no fused multiply-add, so each element is
// rounded as the Go loop in addRows rounds it. len(d) must be a positive
// multiple of 4, and each x must point at len(d) readable elements.
//
//go:noescape
func fold4AVX(d []float64, c0, c1, c2, c3 float64, x0, x1, x2, x3 *float64)
