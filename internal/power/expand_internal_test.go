//go:build amd64

package power

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// TestExpandKernelsFallbackBitIdentical is the CPU-feature fallback
// check for the fused expansion kernel: with the AVX-512 gate forced
// off, the portable one-pass reference must reproduce the assembly
// kernel bit for bit on random inputs, at every averaging factor of the
// sweep and every cycle count including odd tails, into a destination
// full of stale values. Without the extension both sides run the
// portable code and the test degenerates to a self-check.
func TestExpandKernelsFallbackBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	saved := useExpandKernels
	defer func() { useExpandKernels = saved }()

	shape := make([]float64, 4)
	for i := range shape {
		shape[i] = rng.Float64()
	}
	for _, avg := range []int{1, 2, 3, 4, 5, 16} {
		for _, n := range expandCycleCounts {
			for trial := 0; trial < 2; trial++ {
				cycles := make([]float64, n)
				z := make([]float64, avg*n*4)
				dst0 := make([]float64, n*4)
				for i := range cycles {
					cycles[i] = rng.NormFloat64() * 8
				}
				for i := range z {
					z[i] = rng.NormFloat64()
				}
				for i := range dst0 {
					dst0[i] = rng.NormFloat64()
				}
				baseline := rng.NormFloat64()
				sigma := rng.Float64() + 0.1

				useExpandKernels = saved
				dstA := append([]float64(nil), dst0...)
				expandNorm(dstA, cycles, shape, baseline, sigma, z, avg)

				useExpandKernels = false
				dstB := append([]float64(nil), dst0...)
				expandNorm(dstB, cycles, shape, baseline, sigma, z, avg)

				for i := range dstA {
					if math.Float64bits(dstA[i]) != math.Float64bits(dstB[i]) {
						t.Fatalf("avg=%d n=%d sample %d: kernel %x (%g), portable %x (%g)",
							avg, n, i, math.Float64bits(dstA[i]), dstA[i], math.Float64bits(dstB[i]), dstB[i])
					}
				}
			}
		}
	}
}

// FuzzAveragedCyclesNorm checks the one-pass averaged expansion against
// the scalar AveragedCyclesInto oracle, which expands every repetition
// separately, accumulates, then scales: for any pulse resolution 1–6,
// averaging factor 1–20, 1–200 cycles and a noiseless or random noise
// sigma, AveragedCyclesNorm must reproduce it bit for bit with the
// AVX-512 gate on and off, into a reused destination of stale values.
func FuzzAveragedCyclesNorm(f *testing.F) {
	for i := int64(0); i < 8; i++ {
		f.Add(i, uint8(i), uint8(4*i), uint8(25*i+1), i%3 != 0)
	}
	f.Add(int64(9), uint8(3), uint8(15), uint8(128), true)
	f.Fuzz(func(t *testing.T, seed int64, spc, avg, nCycles uint8, noisy bool) {
		rng := rand.New(rand.NewSource(seed))
		sigma := 0.0
		if noisy {
			sigma = rng.Float64()*3 + 1e-3
		}
		m := expandModel(1+int(spc)%6, sigma)
		m.Baseline = rng.NormFloat64() * 4
		a := 1 + int(avg)%20
		cycles := make([]float64, 1+int(nCycles)%200)
		for i := range cycles {
			cycles[i] = m.Baseline + rng.NormFloat64()*3
		}
		state := rng.Uint64()
		ref, _ := m.AveragedCyclesInto(nil, nil, cycles, rand.New(&zsrc{state: state}), a)

		saved := useExpandKernels
		defer func() { useExpandKernels = saved }()
		for _, gate := range []bool{saved, false} {
			useExpandKernels = gate
			stale := make(trace.Trace, len(ref)+7)
			for i := range stale {
				stale[i] = rng.NormFloat64()
			}
			got, _ := m.AveragedCyclesNorm(stale[:0], cycles, &zsrc{state: state}, nil, a)
			if len(got) != len(ref) {
				t.Fatalf("gate %v: length %d, want %d", gate, len(got), len(ref))
			}
			for i := range ref {
				if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("gate %v spc=%d sigma=%g avg=%d n=%d sample %d: fused %x (%g), scalar %x (%g)",
						gate, m.SamplesPerCycle, sigma, a, len(cycles), i,
						math.Float64bits(got[i]), got[i], math.Float64bits(ref[i]), ref[i])
				}
			}
		}
	})
}
