//go:build amd64

package znorm

import (
	"math"
	"testing"
)

// TestWindowKernelPinned pins the AVX-512 window kernel to its Go twin:
// values and hit bits bit for bit, at every step count and over many
// base states (including ones whose eight lanes wrap around 2^64).
func TestWindowKernelPinned(t *testing.T) {
	if !useWindowKernel {
		t.Skip("AVX-512 window kernel unavailable or forced off")
	}
	for k := uint64(0); k < 200; k++ {
		s := k * 0xA0761D6478BD642F
		if k == 1 {
			s = -(3 * laneGamma[0]) // lanes 3..7 wrap past 2^64
		}
		steps := 1 + int(k)%(windowLen/laneWidth)
		var got, want window
		windowAVX512(&got, s, steps)
		windowGo(&want, s, steps)
		for p := 0; p < steps*laneWidth; p++ {
			if math.Float64bits(got.vals[p]) != math.Float64bits(want.vals[p]) {
				t.Fatalf("state %#x position %d: kernel value %g, twin %g", s, p, got.vals[p], want.vals[p])
			}
			bit := uint64(1) << (p & 63)
			if got.hits[p>>6]&bit != want.hits[p>>6]&bit {
				t.Fatalf("state %#x position %d: kernel hit %v, twin %v",
					s, p, got.hits[p>>6]&bit != 0, want.hits[p>>6]&bit != 0)
			}
		}
	}
}

// TestFillKernelGate is the CPU-feature fallback check: Fill with the
// kernel gate forced off must equal Fill with it on. Without AVX-512
// both sides run the scalar loop.
func TestFillKernelGate(t *testing.T) {
	saved := useWindowKernel
	defer func() { useWindowKernel = saved }()
	for _, n := range []int{1, 8, 100, windowLen, 5000} {
		for seed := uint64(0); seed < 8; seed++ {
			state := seed * 0xE7037ED1A0B428DB
			useWindowKernel = saved
			a := make([]float64, n)
			sa := state
			Fill(a, &sa)
			useWindowKernel = false
			b := make([]float64, n)
			sb := state
			Fill(b, &sb)
			if sa != sb {
				t.Fatalf("n=%d seed %d: states %#x vs %#x", n, seed, sa, sb)
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("n=%d seed %d draw %d: kernel %g, scalar %g", n, seed, i, a[i], b[i])
				}
			}
		}
	}
}
