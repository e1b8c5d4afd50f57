//go:build amd64

package power

import "repro/internal/cpufeat"

// useExpandKernels gates the AVX-512 expansion kernels; a package
// variable so the fallback tests can force the portable reference.
var useExpandKernels = cpufeat.AVX512

// expand4SetAVX512 renders nPairs cycle pairs (eight samples per
// iteration at four samples per cycle): dst = (baseline +
// (p-baseline)*shape) + z*sigma, overwriting dst. shape8 is the
// four-sample pulse shape repeated twice to fill one ZMM register.
// Neither kernel retains a pointer, so shape8 stays on the caller's
// stack.
//
//go:noescape
func expand4SetAVX512(dst, cycles, z *float64, nPairs int, shape8 *float64, baseline, sigma float64)

// expand4AddAVX512 is expand4SetAVX512 accumulating into dst instead of
// overwriting — the AddInPlace of the averaging loop fused into the
// expansion.
//
//go:noescape
func expand4AddAVX512(dst, cycles, z *float64, nPairs int, shape8 *float64, baseline, sigma float64)

// expandNorm renders one noisy repetition of the per-cycle power vector
// into dst, bit-identically to expandNormGeneric. The vector kernel
// covers the common four-samples-per-cycle shape two cycles at a time;
// any odd final cycle (and every other shape) takes the portable
// reference.
func expandNorm(dst, cycles, shape []float64, baseline, sigma float64, z []float64, add bool) {
	if !useExpandKernels || len(shape) != 4 || len(cycles) < 2 {
		expandNormGeneric(dst, cycles, shape, baseline, sigma, z, add)
		return
	}
	pairs := len(cycles) / 2
	var shape8 [8]float64
	copy(shape8[:4], shape)
	copy(shape8[4:], shape)
	if add {
		expand4AddAVX512(&dst[0], &cycles[0], &z[0], pairs, &shape8[0], baseline, sigma)
	} else {
		expand4SetAVX512(&dst[0], &cycles[0], &z[0], pairs, &shape8[0], baseline, sigma)
	}
	if rem := pairs * 2; rem < len(cycles) {
		expandNormGeneric(dst[rem*4:], cycles[rem:], shape, baseline, sigma, z[rem*4:], add)
	}
}
