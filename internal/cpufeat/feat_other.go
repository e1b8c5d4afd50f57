//go:build !amd64

package cpufeat

// No SIMD kernels exist off amd64; every consumer runs its portable
// reference implementation (ForcePortableEnv is accepted but moot).
var (
	AVX          = false
	FMA          = false
	AVX512       = false
	AVX512Popcnt = false
	BMI2         = false
)
