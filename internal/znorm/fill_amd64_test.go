//go:build amd64

package znorm

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/cpufeat"
)

// TestWindowKernelPinned pins the AVX-512 window kernel to its Go twin
// bit for bit, at every step count and over many base states
// (including ones whose eight lanes wrap around 2^64, and uniforms of
// exactly 1): values, hit, accept and fallback bits at every position
// — except the accept bit where a fallback overrides it. Each kernel
// call starts from the previous call's window, so stale bits would
// show.
//
// The kernel's miss list writes four entries per word and loops only
// past them, and pass 2 handles the list eight misses at a time, so the
// states must include a word with five or more misses and a window
// with more than eight. The placement writes every word's accept and
// fallback masks, so a call that lists no misses must leave both clear
// after a call that set them.
func TestWindowKernelPinned(t *testing.T) {
	if !useWindowKernel {
		t.Skip("AVX-512 window kernel unavailable or forced off")
	}
	var misses, accepts, fallbacks, maxWordMisses, maxWindowMisses int
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
		windowMisses := 0
		for w := 0; w*64 < steps*laneWidth; w++ {
			live := ^uint64(0) >> (64 - min(steps*laneWidth-w*64, 64))
			c := bits.OnesCount64(^want.hits[w] & live)
			maxWordMisses = max(maxWordMisses, c)
			windowMisses += c
		}
		maxWindowMisses = max(maxWindowMisses, windowMisses)
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
	if maxWordMisses < 5 || maxWindowMisses <= laneWidth {
		t.Fatalf("at most %d misses in a word and %d in a window: need a word with 5 and a window of two pass-2 groups",
			maxWordMisses, maxWindowMisses)
	}

	// A window whose first word sets accept and fallback bits, then a
	// call over a first word of hits alone.
	var set, clean uint64
	for k := uint64(1); set == 0 || clean == 0; k++ {
		s := k * 0x9E6C63D0676A9A99
		windowGo(&want, s, 8)
		switch {
		case want.hits[0] == ^uint64(0):
			clean = s
		case want.accept[0] != 0 && want.fallback[0] != 0:
			set = s
		}
	}
	windowAVX512(&got, set, 8)
	if got.accept[0] == 0 || got.fallback[0] == 0 {
		t.Fatalf("state %#x: accept %#x, fallback %#x in the first word, want both set", set, got.accept[0], got.fallback[0])
	}
	windowAVX512(&got, clean, 8)
	if got.accept[0] != 0 || got.fallback[0] != 0 {
		t.Fatalf("state %#x lists no misses after state %#x: accept %#x, fallback %#x, want clear",
			clean, set, got.accept[0], got.fallback[0])
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

// checkWalk asserts that walk over w, computed from state s, with n
// positions and room values of dst, gives the same result with the
// fast path as with the Go word body alone (the kernel gate off): the
// same values, the same count returned and the same final state. dst
// sits in a guarded buffer, so a write past room would show.
func checkWalk(t testing.TB, w *window, s uint64, n, room int) {
	t.Helper()
	saved := useWindowKernel
	defer func() { useWindowKernel = saved }()
	type result struct {
		buf   []float64
		o     int
		state uint64
	}
	run := func(fast bool) result {
		useWindowKernel = fast
		r := result{buf: make([]float64, room+laneWidth), state: s}
		for i := range r.buf {
			r.buf[i] = -1
		}
		r.o = w.walk(r.buf[:room], &r.state, n)
		return r
	}
	got, want := run(true), run(false)
	if got.o != want.o || got.state != want.state {
		t.Fatalf("state %#x n %d room %d: fast path wrote %d and left state %#x, Go body %d and %#x",
			s, n, room, got.o, got.state, want.o, want.state)
	}
	for i := range got.buf {
		if math.Float64bits(got.buf[i]) != math.Float64bits(want.buf[i]) {
			t.Fatalf("state %#x n %d room %d: dst[%d] = %g with the fast path, %g with the Go body",
				s, n, room, i, got.buf[i], want.buf[i])
		}
	}
}

// walkCases returns the walk lengths and dst sizes to check over a
// window of the given steps: n ending mid-step, mid-word and at the
// window's end; dst ending mid-word and at the window's end; and, when
// the window holds a fallback start, n ending on its word and dst
// filling just before, on and after it.
func walkCases(w *window, s uint64, steps int) (ns, rooms []int) {
	end := steps * laneWidth
	ns = []int{1, 5, 13, 64, 65, 100, 333, end - 3, end}
	rooms = []int{1, 2, 7, 30, 64, 65, 200, end}
	// The first fallback that starts a draw, as the Go body walks.
	saved := useWindowKernel
	useWindowKernel = false
	defer func() { useWindowKernel = saved }()
	st := s
	for p := 0; p < end; {
		k, b := p>>6, p&63
		live := ^uint64(0) << b & (^uint64(0) >> (64 - min(end-k*64, 64)))
		if f := w.fallback[k] & missStarts(^w.hits[k]&live); f != 0 {
			q := k*64 + bits.TrailingZeros64(f)
			r := w.walk(make([]float64, end), &st, k*64) // draws before its word
			ns = append(ns, k*64+1, q, q+1, q+2)
			rooms = append(rooms, r, r+1, r+2)
			break
		}
		p = (k + 1) * 64
	}
	return ns, rooms
}

// TestWalkFastPathEqualsGo pins the walker's fast path to its Go word
// body over kernel windows and Go-twin windows from many states,
// including ones with a uniform of exactly 1 after a wedge miss.
func TestWalkFastPathEqualsGo(t *testing.T) {
	if !useWindowKernel {
		t.Skip("AVX-512 window kernel unavailable or forced off")
	}
	states := []uint64{uniformOneState(t, 0), uniformOneState(t, 62), uniformOneState(t, 63)}
	for k := uint64(0); k < 400; k++ {
		states = append(states, k*0xA0761D6478BD642F)
	}
	withFallback := 0
	var kw, gw window
	for k, s := range states {
		steps := windowLen / laneWidth
		if k%4 == 3 {
			steps = 1 + k%steps
		}
		windowAVX512(&kw, s, steps)
		windowGo(&gw, s, steps)
		for _, w := range []*window{&kw, &gw} {
			ns, rooms := walkCases(w, s, steps)
			if len(rooms) > 8 {
				withFallback++
			}
			for _, n := range ns {
				for _, room := range rooms {
					if n >= 1 && n <= steps*laneWidth && room >= 1 {
						checkWalk(t, w, s, n, room)
					}
				}
			}
		}
	}
	if withFallback == 0 {
		t.Fatal("no window held a fallback start")
	}
}

// FuzzWalk asserts that the walker's fast path equals its Go word body
// over the kernel's window and the Go twin's from state, for any walk
// length n and dst size room.
func FuzzWalk(f *testing.F) {
	for k := uint64(0); k < 32; k++ {
		for _, c := range [][2]uint16{{1, 1}, {64, 63}, {100, 30}, {windowLen, 65}, {windowLen, windowLen}} {
			f.Add(k*0xD6E8FEB86659FD93, c[0], c[1])
		}
	}
	f.Fuzz(func(t *testing.T, state uint64, n, room uint16) {
		if !useWindowKernel {
			t.Skip("AVX-512 window kernel unavailable or forced off")
		}
		steps := windowLen / laneWidth
		pos := 1 + int(n)%(steps*laneWidth)
		dst := 1 + int(room)%(windowLen+64)
		var w window
		windowAVX512(&w, state, steps)
		checkWalk(t, &w, state, pos, dst)
		windowGo(&w, state, steps)
		checkWalk(t, &w, state, pos, dst)
	})
}

// TestFillKernelGate is the CPU-feature fallback check. The gate must
// require every extension the kernel, the miss list, the verdict
// placement and the walker's fast path use: AVX-512, FMA, and BMI1,
// BMI2 and POPCNT. Fill with the gate forced off must equal Fill with
// it on; without those extensions both sides run the scalar loop.
func TestFillKernelGate(t *testing.T) {
	saved := useWindowKernel
	defer func() { useWindowKernel = saved }()
	if want := cpufeat.AVX512 && cpufeat.FMA && cpufeat.BMI2; saved != want {
		t.Fatalf("kernel gate %v, want %v (AVX512 %v, FMA %v, BMI2 %v)", saved, want, cpufeat.AVX512, cpufeat.FMA, cpufeat.BMI2)
	}
	for _, n := range []int{1, 8, 100, 112, windowLen, 1792, 2460, 5000} {
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
