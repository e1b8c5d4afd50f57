//go:build amd64

package znorm

import (
	"math"
	"math/bits"
	"testing"
)

// TestWindowKernelPinned pins the AVX-512 window kernel to its Go twin
// bit for bit, at every step count and over many base states
// (including ones whose eight lanes wrap around 2^64, and uniforms of
// exactly 1): values, hit, accept and fallback bits at every position
// — except the accept bit where a fallback overrides it. Each kernel
// call starts from the previous call's window, so stale bits would
// show.
func TestWindowKernelPinned(t *testing.T) {
	if !useWindowKernel {
		t.Skip("AVX-512 window kernel unavailable or forced off")
	}
	var misses, accepts, fallbacks int
	var got, want window
	// A uniform of exactly 1 after a wedge miss: fallbacks the base
	// strip does not cause.
	u1 := []uint64{uniformOneState(t, 0), uniformOneState(t, 20)}
	for k := uint64(0); k < 2000; k++ {
		s := k * 0xA0761D6478BD642F
		switch k {
		case 1:
			s = -(3 * laneGamma[0]) // lanes 3..7 wrap past 2^64
		case 2, 3:
			s = u1[k-2]
		}
		steps := 1 + int(k)%(windowLen/laneWidth)
		windowAVX512(&got, s, steps)
		windowGo(&want, s, steps)
		for p := 0; p < steps*laneWidth; p++ {
			if math.Float64bits(got.vals[p]) != math.Float64bits(want.vals[p]) {
				t.Fatalf("state %#x position %d: kernel value %g, twin %g", s, p, got.vals[p], want.vals[p])
			}
			bit := func(m *[windowWords]uint64) bool { return m[p>>6]>>(p&63)&1 != 0 }
			if bit(&got.hits) != bit(&want.hits) {
				t.Fatalf("state %#x position %d: kernel hit %v, twin %v", s, p, bit(&got.hits), bit(&want.hits))
			}
			if bit(&got.fallback) != bit(&want.fallback) {
				t.Fatalf("state %#x position %d: kernel fallback %v, twin %v", s, p, bit(&got.fallback), bit(&want.fallback))
			}
			if bit(&want.fallback) {
				fallbacks++
				continue
			}
			if bit(&got.accept) != bit(&want.accept) {
				t.Fatalf("state %#x position %d: kernel accept %v, twin %v", s, p, bit(&got.accept), bit(&want.accept))
			}
			if !bit(&want.hits) {
				misses++
			}
			if bit(&want.accept) {
				accepts++
			}
		}
	}
	if accepts == 0 || accepts == misses || fallbacks == 0 {
		t.Fatalf("%d wedge misses, %d accepted, %d fallbacks: both wedge outcomes and a fallback must occur", misses, accepts, fallbacks)
	}
}

// TestExpPinned pins the kernel's exp to math.Exp bit for bit on every
// argument the wedge test can reach: −.5·x·x for x = float64(j)·wn[i]
// over every int32 j outside the fast strip of a wedge strip i ≠ 0,
// |j| ≥ kn[i] (about 115 M values). -short takes a strided subset.
func TestExpPinned(t *testing.T) {
	if !useWindowKernel {
		t.Skip("AVX-512 window kernel unavailable or forced off")
	}
	stride := int64(128)
	if testing.Short() {
		stride = 128 * 97
	}
	const chunk = 4096
	args := make([]float64, 0, chunk)
	got := make([]float64, chunk)
	n := 0
	check := func() {
		for len(args)%laneWidth != 0 {
			args = append(args, args[0])
		}
		expAVX512(&got[0], &args[0], len(args))
		for k, a := range args {
			if want := math.Exp(a); math.Float64bits(got[k]) != math.Float64bits(want) {
				t.Fatalf("exp(%v) = %x, math.Exp %x", a, math.Float64bits(got[k]), math.Float64bits(want))
			}
		}
		n += len(args)
		args = args[:0]
	}
	for i := int64(1); i < 128; i++ {
		lo := int64(kn[i])
		// j = i + 128m ≥ kn[i], then j = i + 128m ≤ −kn[i].
		for _, r := range [][2]int64{{lo + (i-lo)&127, math.MaxInt32}, {math.MinInt32 + i, -lo}} {
			for j := r[0]; j <= r[1]; j += stride {
				x := float64(int32(j)) * float64(wn[i])
				args = append(args, -.5*x*x)
				if len(args) == chunk {
					check()
				}
			}
		}
	}
	if len(args) > 0 {
		check()
	}
	t.Logf("%d wedge arguments checked", n)
}

// TestCompressPinned pins the vector compaction to compressGo, with
// dst exactly as long as the emitted count inside a guarded buffer:
// nothing past it may be written.
func TestCompressPinned(t *testing.T) {
	if !useWindowKernel {
		t.Skip("AVX-512 window kernel unavailable or forced off")
	}
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i) + 0.5
	}
	const guard = -1.0
	emit := uint64(0x243F6A8885A308D3)
	for k := 0; k < 2000; k++ {
		emit = emit*0x5851F42D4C957F2D + 1
		e := emit
		switch k % 4 {
		case 1:
			e &= emit >> 7 // sparse
		case 2:
			e |= emit << 3 // dense
		case 3:
			e = ^uint64(0) >> (k % 64)
		}
		c := bits.OnesCount64(e)
		buf := make([]float64, c+16)
		for i := range buf {
			buf[i] = guard
		}
		want := make([]float64, c)
		compressGo(want, vals, e)
		if c > 0 {
			compressAVX512(&buf[0], &vals[0], e)
		}
		for i := range buf {
			w := guard
			if i < c {
				w = want[i]
			}
			if buf[i] != w {
				t.Fatalf("emit %#x: dst[%d] = %g, want %g", e, i, buf[i], w)
			}
		}
	}
}

// TestFillKernelGate is the CPU-feature fallback check: Fill with the
// kernel gate forced off must equal Fill with it on. Without AVX-512
// and FMA both sides run the scalar loop.
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

// BenchmarkWindowKernel measures the kernel alone, in ns per position
// over full windows.
func BenchmarkWindowKernel(b *testing.B) {
	if !useWindowKernel {
		b.Skip("AVX-512 window kernel unavailable or forced off")
	}
	var w window
	s := uint64(0x243F6A8885A308D3)
	for i := 0; i < b.N; i++ {
		windowAVX512(&w, s, windowLen/laneWidth)
		s += uint64(windowLen) * laneGamma[0]
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*windowLen), "ns/position")
}
