//go:build !amd64

package power

// expandNorm renders the averaged acquisition of cycles into dst
// (repetition r's noise at z[r·len(dst):], nil for none); without
// vector kernels it is the portable reference itself.
func expandNorm(dst, cycles, shape []float64, baseline, sigma float64, z []float64, avg int) {
	expandNormGeneric(dst, cycles, shape, baseline, sigma, z, len(dst), avg)
}
