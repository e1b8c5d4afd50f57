package znorm

import (
	"fmt"
	"math"
	"testing"
)

// windowGo is the Go twin of the window kernel: the same positions,
// values and hit bits, one position at a time, and at every miss Norm's
// own wedge test and fallback condition.
func windowGo(w *window, s uint64, steps int) {
	for p := 0; p < steps*laneWidth; p++ {
		j := int32(uint32(mix(s+uint64(p+1)*gamma) >> 32))
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		w.vals[p] = x
		hit := absInt32(j) < kn[i]
		setBit(&w.hits, p, hit)
		setBit(&w.fallback, p, false)
		setBit(&w.accept, p, false)
		if hit {
			continue
		}
		u := uniformAt(s, p+1)
		setBit(&w.fallback, p, i == 0 || u == 1)
		setBit(&w.accept, p, i != 0 && fn[i]+float32(u)*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)))
	}
}

func setBit(m *[windowWords]uint64, p int, v bool) {
	if v {
		m[p>>6] |= 1 << (p & 63)
	} else {
		m[p>>6] &^= 1 << (p & 63)
	}
}

// fillTwin is fillWindowed over the Go twin, so the walker runs on
// every architecture and with the kernel gate off.
func fillTwin(dst []float64, state *uint64) {
	var w window
	s := *state
	for len(dst) > 0 {
		steps := windowSteps(len(dst))
		windowGo(&w, s, steps)
		dst = dst[w.walk(dst, &s, steps*laneWidth):]
	}
	*state = s
}

// checkFill asserts that Fill and the walker over the Go twin both
// equal n successive Norm calls from state, bit for bit, and leave the
// same final state.
func checkFill(t testing.TB, state uint64, n int) {
	t.Helper()
	want := make([]float64, n)
	wantState := state
	for i := range want {
		want[i] = Norm(&wantState)
	}
	for _, f := range []struct {
		name string
		fill func([]float64, *uint64)
	}{{"Fill", Fill}, {"twin", fillTwin}} {
		got := make([]float64, n)
		st := state
		f.fill(got, &st)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s(state %#x, n %d) draw %d = %x (%g), Norm %x (%g)",
					f.name, state, n, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
			}
		}
		if st != wantState {
			t.Fatalf("%s(state %#x, n %d) left state %#x, Norm %#x", f.name, state, n, st, wantState)
		}
	}
}

// draw describes the stream position p after state s: its ziggurat
// strip, whether it hits the fast strip, and how many draws Norm
// consumes when started there.
type draw struct {
	strip int32
	hit   bool
	used  uint64
}

func drawAt(s uint64, p int) draw {
	j := int32(uint32(mix(s+uint64(p+1)*gamma) >> 32))
	i := j & 0x7F
	st := s + uint64(p)*gamma
	Norm(&st)
	return draw{strip: i, hit: absInt32(j) < kn[i], used: (st - s - uint64(p)*gamma) * gammaInv}
}

// firstMiss returns the first position after state s, up to limit,
// that misses the fast strip, or -1. Every position before it is a hit,
// so the walk reaches it as a ziggurat draw.
func firstMiss(s uint64, limit int) int {
	for q := 0; q <= limit; q++ {
		if !drawAt(s, q).hit {
			return q
		}
	}
	return -1
}

// findState returns the first state in a fixed scan whose first miss
// is at position p and satisfies want.
func findState(t *testing.T, p int, want func(draw) bool) uint64 {
	t.Helper()
	for k := uint64(1); k < 1<<24; k++ {
		s := k * 0x2545F4914F6CDD1D
		if firstMiss(s, p) == p && want(drawAt(s, p)) {
			return s
		}
	}
	t.Fatalf("no state with its first miss at %d found", p)
	return 0
}

// unmix inverts mix, so a test can place a chosen mix output at a
// chosen stream position.
func unmix(z uint64) uint64 {
	inv := func(c uint64) uint64 { // Newton's iteration modulo 2^64
		x := c
		for i := 0; i < 6; i++ {
			x *= 2 - c*x
		}
		return x
	}
	z ^= z>>31 ^ z>>62
	z *= inv(0x94D049BB133111EB)
	z ^= z>>27 ^ z>>54
	z *= inv(0xBF58476D1CE4E5B9)
	z ^= z>>30 ^ z>>60
	return z
}

// boundaryState returns a state whose draw at position p has
// |j| == kn[i], the fast strip's edge: a miss, since Norm tests
// |j| < kn[i]. j is kn[i] or -kn[i], whichever has i in its low bits.
func boundaryState(t *testing.T, i int, negative bool, p int) uint64 {
	t.Helper()
	j := int32(kn[i])
	if negative {
		j = -j
	}
	if int(j&0x7F) != i {
		t.Fatalf("strip %d: j %#x is not in it", i, j)
	}
	x := unmix(uint64(uint32(j)) << 32)
	if mix(x)>>32 != uint64(uint32(j)) {
		t.Fatalf("unmix(%#x) does not invert mix", x)
	}
	return x - uint64(p+1)*gamma
}

func TestGammaInverse(t *testing.T) {
	if g := laneGamma[0] * gammaInv; g != 1 {
		t.Fatalf("gamma·gammaInv = %#x, want 1", g)
	}
}

// TestMissStarts pins missStarts to the sequential rule it encodes: a
// miss starts a draw unless the position before it is a miss that did.
func TestMissStarts(t *testing.T) {
	ref := func(miss uint64) (s uint64) {
		for p := 0; p < 64; p++ {
			if miss>>p&1 != 0 && (p == 0 || s>>(p-1)&1 == 0) {
				s |= 1 << p
			}
		}
		return s
	}
	x := uint64(0x243F6A8885A308D3)
	for k := 0; k < 1<<17; k++ {
		miss := uint64(k) | uint64(k)<<47 // every 17-bit pattern, at both ends
		if k >= 1<<16 {
			x = x*0x5851F42D4C957F2D + 1
			miss = x & (x >> uint(k%5)) // runs of many lengths
		}
		if got, want := missStarts(miss), ref(miss); got != want {
			t.Fatalf("missStarts(%#x) = %#x, want %#x", miss, got, want)
		}
	}
}

// starts reports which of the first limit positions after state s
// start a draw when Norm runs from s over and over.
func starts(s uint64, limit int) []bool {
	start := make([]bool, limit)
	st := s
	for p := 0; p < limit; p = int((st - s) * gammaInv) {
		start[p] = true
		Norm(&st)
	}
	return start
}

// craft returns a state whose position p mixes to mixAt(k) for the
// first k that satisfies want.
func craft(t *testing.T, p int, mixAt func(k uint64) uint64, want func(s uint64) bool) uint64 {
	t.Helper()
	for k := uint64(0); k < 1<<20; k++ {
		m := mixAt(k)
		s := unmix(m) - uint64(p+1)*gamma
		if mix(s+uint64(p+1)*gamma) != m {
			t.Fatalf("unmix does not invert mix")
		}
		if want(s) {
			return s
		}
	}
	t.Fatalf("no state crafted at position %d", p)
	return 0
}

// topBits is a craft mix source: top in the upper 32 bits, the lower 32
// scanned.
func topBits(top uint32) func(k uint64) uint64 {
	return func(k uint64) uint64 { return uint64(top)<<32 | k*0x9E3779B9&0xffffffff }
}

// uniformAt is the uniform Norm draws from position p after state s,
// before its redraw on an exact 1.
func uniformAt(s uint64, p int) float64 {
	return float64(int64(mix(s+uint64(p+1)*gamma)>>1)) / (1 << 63)
}

// uniformOneState returns a state whose position p is a wedge miss
// starting a draw, followed by a uniform of exactly 1: the mix at p+1
// lies within 2^10 of 2^64, so its top 63 bits round to 2^63.
func uniformOneState(t *testing.T, p int) uint64 {
	t.Helper()
	return craft(t, p+1, func(k uint64) uint64 { return ^(k % 1024) }, func(s uint64) bool {
		d := drawAt(s, p)
		return uniformAt(s, p+1) == 1 && !d.hit && d.strip != 0 && starts(s, p+1)[p]
	})
}

// unfusedWedgeStates start with a wedge miss that Norm's float32
// multiply and add decide by their two roundings: rounded once, as a
// fused multiply-add would round, the accept decision flips. They were
// found by a search over mid-wedge draws and uniforms; checkUnfused
// re-derives the property.
var unfusedWedgeStates = []uint64{0x8792cb8d0ef8d1c7, 0xb2a130583a557cc4, 0x3805da9cae708cfe}

// checkUnfused asserts that the first draw after s is a wedge miss whose
// accept decision a fused multiply-add would flip.
func checkUnfused(t *testing.T, s uint64) {
	t.Helper()
	j := int32(uint32(mix(s+gamma) >> 32))
	i := j & 0x7F
	if i == 0 || absInt32(j) < kn[i] {
		t.Fatalf("state %#x: first draw j %#x is not a wedge miss", s, j)
	}
	x := float64(j) * float64(wn[i])
	e := float32(math.Exp(-.5 * x * x))
	uf := float32(uniformAt(s, 1))
	d := fn[i-1] - fn[i]
	y := fn[i] + float32(uf*d)
	fused := float32(math.FMA(float64(uf), float64(d), float64(fn[i])))
	if (y < e) == (fused < e) {
		t.Fatalf("state %#x: a fused wedge test decides strip %d the same way", s, i)
	}
}

// TestFillCrafted covers the walker's edges with states scanned or
// crafted for the property each case names.
func TestFillCrafted(t *testing.T) {
	const W = windowLen
	miss := func(draw) bool { return true }
	type tc struct {
		name  string
		state uint64
		ns    []int
	}
	var cases []tc
	for lane := 0; lane < laneWidth; lane++ {
		cases = append(cases, tc{fmt.Sprintf("miss at lane %d", lane), findState(t, lane, miss), []int{64}})
	}
	// Both signs of j on the strip edge, each the first miss of its
	// window.
	for _, e := range []struct {
		strip    int
		negative bool
		p        int
	}{{117, false, 5}, {20, true, 2}} {
		s := boundaryState(t, e.strip, e.negative, e.p)
		if firstMiss(s, e.p) != e.p || int(drawAt(s, e.p).strip) != e.strip {
			t.Fatalf("boundary state %#x: first miss not at %d in strip %d", s, e.p, e.strip)
		}
		cases = append(cases, tc{fmt.Sprintf("|j| == kn[%d] at %d", e.strip, e.p), s, []int{64}})
	}
	cases = append(cases,
		tc{"base-strip tail", findState(t, 3, func(d draw) bool { return d.strip == 0 }), []int{64}},
		tc{"wedge rejection", findState(t, 5, func(d draw) bool { return d.strip != 0 && d.used > 2 }), []int{64}})

	// A wedge miss far outside the fast strip (|j| near 2^31) at a draw
	// start p, whose next position is a miss too: adjacent misses
	// within a step, across a step, a word and a window boundary.
	const wedgeJ = 0x7fffff80 | 5
	for _, p := range []int{2, 7, 63, 127, W - 1} {
		s := craft(t, p, topBits(wedgeJ), func(s uint64) bool {
			return !drawAt(s, p+1).hit && starts(s, p+1)[p]
		})
		cases = append(cases, tc{fmt.Sprintf("adjacent misses at %d,%d", p, p+1), s, []int{p + 1, p + 2, p + 3, W + 40, 3 * W}})
	}
	// A uniform of exactly 1 after a wedge miss: Norm redraws it.
	for _, p := range []int{4, 63} {
		s := uniformOneState(t, p)
		cases = append(cases, tc{fmt.Sprintf("uniform 1 after a miss at %d", p), s, []int{p + 1, p + 2, 200}})
	}
	// A base-strip tail miss (both signs of j) at the last position of
	// a fill's first window, whose length is n rounded up to a step and
	// capped at W, consumes draws past the window's end; the next
	// window starts where Norm stopped.
	for k, n := range []int{128, 129, 168, 384, W, W + 1, W + 40, 3 * W} {
		last := min((n+laneWidth-1)/laneWidth*laneWidth, W) - 1
		top := uint32(0x7fffff80)
		if k%2 == 1 {
			top = 0x80000080
		}
		s := craft(t, last, topBits(top), func(s uint64) bool { return starts(s, last+1)[last] })
		cases = append(cases, tc{fmt.Sprintf("miss at window end, n=%d", n), s, []int{n}})
	}
	// Wedge tests that a fused multiply-add would decide the other way.
	for _, s := range unfusedWedgeStates {
		checkUnfused(t, s)
		cases = append(cases, tc{fmt.Sprintf("unfused wedge test at %#x", s), s, []int{1, 100}})
	}
	// Lengths that end mid-step, mid-word and mid-window, and the
	// shapes the campaigns fill.
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 63, 64, 65, 100, 112, 127, 128, 129, W - 1, W, W + 1, 700, 1792, 2460, 4096} {
		cases = append(cases, tc{fmt.Sprintf("length %d", n), 0x243F6A8885A308D3, []int{n}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, n := range c.ns {
				checkFill(t, c.state, n)
			}
		})
	}
}

// FuzzFill asserts that Fill equals n successive Norm calls bit for bit
// and leaves the same final state, on the kernel and on the walker over
// the Go twin.
func FuzzFill(f *testing.F) {
	for _, s := range []uint64{0, 1, 0x243F6A8885A308D3, math.MaxUint64} {
		for _, n := range []uint16{0, 1, 16, windowLen + 1, 4096} {
			f.Add(s, n)
		}
	}
	// Many states at lengths around the step and window boundaries.
	for k := uint64(0); k < 64; k++ {
		for _, n := range []uint16{3, 8, 63, windowLen - 1, 2*windowLen + 1, 1000} {
			f.Add(k*0xD6E8FEB86659FD93, n)
		}
	}
	f.Fuzz(func(t *testing.T, state uint64, n uint16) {
		checkFill(t, state, int(n))
	})
}

// BenchmarkFill measures ns per draw for Fill (the window kernel where
// available) and the scalar loop, at the fill lengths a campaigns pass
// requests — one 112-sample execution, a Table 2 trace's 16 averaged
// executions (1792), 2460 — and a long 4096-draw fill.
func BenchmarkFill(b *testing.B) {
	for _, bm := range []struct {
		name string
		fill func([]float64, *uint64)
	}{{"Fill", Fill}, {"scalar", fillScalar}} {
		for _, n := range []int{112, 1792, 2460, 4096} {
			b.Run(fmt.Sprintf("%s/n=%d", bm.name, n), func(b *testing.B) {
				dst := make([]float64, n)
				state := uint64(0x243F6A8885A308D3)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bm.fill(dst, &state)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/draw")
			})
		}
	}
}
