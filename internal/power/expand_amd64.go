//go:build amd64

package power

import "repro/internal/cpufeat"

// useExpandKernels gates the AVX-512 expansion kernel; a package
// variable so the fallback tests can force the portable reference.
var useExpandKernels = cpufeat.AVX512

// expand4AvgAVX512 renders the averaged acquisition of nPairs cycle
// pairs (eight samples per block at four samples per cycle) in one
// pass, four independent blocks per iteration and then block by block:
// per block, sig = baseline + (p-baseline)*shape, acc = sig + z₀*sigma,
// acc += sig + z_r*sigma for r = 1..avg-1 with z_r stride bytes past
// z_{r-1}, then acc *= scale when avg > 1, and one store. shape8 is the
// four-sample pulse shape repeated twice to fill one ZMM register. The
// kernel retains no pointer, so shape8 stays on the caller's stack.
//
//go:noescape
func expand4AvgAVX512(dst, cycles, z *float64, nPairs, stride, avg int, shape8 *float64, baseline, sigma, scale float64)

// expandNorm renders the averaged acquisition of cycles into dst
// (repetition r's noise at z[r·len(dst):], nil for none),
// bit-identically to expandNormGeneric. The vector kernel covers the
// common four-samples-per-cycle noisy shape two cycles at a time; any
// odd final cycle, every other shape and the noiseless path take the
// portable reference.
func expandNorm(dst, cycles, shape []float64, baseline, sigma float64, z []float64, avg int) {
	need := len(dst)
	if !useExpandKernels || z == nil || len(shape) != 4 || len(cycles) < 2 {
		expandNormGeneric(dst, cycles, shape, baseline, sigma, z, need, avg)
		return
	}
	pairs := len(cycles) / 2
	var shape8 [8]float64
	copy(shape8[:4], shape)
	copy(shape8[4:], shape)
	expand4AvgAVX512(&dst[0], &cycles[0], &z[0], pairs, need*8, avg, &shape8[0], baseline, sigma, 1/float64(avg))
	if rem := pairs * 2; rem < len(cycles) {
		expandNormGeneric(dst[rem*4:], cycles[rem:], shape, baseline, sigma, z[rem*4:], need, avg)
	}
}
