package znorm

import (
	"fmt"
	"math"
	"testing"
)

// windowGo is the Go twin of the window kernel: the same positions,
// values and hit bits, one position at a time.
func windowGo(w *window, s uint64, steps int) {
	for p := 0; p < steps*laneWidth; p++ {
		j := int32(uint32(mix(s+uint64(p+1)*gamma) >> 32))
		i := j & 0x7F
		w.vals[p] = float64(j) * float64(wn[i])
		bit := uint64(1) << (p & 63)
		if absInt32(j) < kn[i] {
			w.hits[p>>6] |= bit
		} else {
			w.hits[p>>6] &^= bit
		}
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

// TestFillCrafted covers the walker's edges with states scanned for the
// property each case names.
func TestFillCrafted(t *testing.T) {
	const W = windowLen
	miss := func(draw) bool { return true }
	type tc struct {
		name  string
		state uint64
		n     int
	}
	var cases []tc
	for lane := 0; lane < laneWidth; lane++ {
		cases = append(cases, tc{fmt.Sprintf("miss at lane %d", lane), findState(t, lane, miss), 64})
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
		cases = append(cases, tc{fmt.Sprintf("|j| == kn[%d] at %d", e.strip, e.p), s, 64})
	}
	cases = append(cases,
		tc{"base-strip tail", findState(t, 3, func(d draw) bool { return d.strip == 0 }), 64},
		tc{"wedge rejection", findState(t, 5, func(d draw) bool { return d.strip != 0 && d.used > 2 }), 64})

	// A miss at the last window position consumes draws past the
	// window's end; the next window starts where Norm stopped.
	last := findState(t, W-1, func(d draw) bool { return d.used > 1 })
	for _, n := range []int{W, W + 1, W + 40, 3 * W} {
		cases = append(cases, tc{fmt.Sprintf("miss at window end, n=%d", n), last, n})
	}
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, W - 1, W, W + 1, 4096} {
		cases = append(cases, tc{fmt.Sprintf("length %d", n), 0x243F6A8885A308D3, n})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkFill(t, c.state, c.n) })
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

// BenchmarkFill measures ns per draw over 4096-draw fills: Fill (the
// window kernel where available) and the scalar loop.
func BenchmarkFill(b *testing.B) {
	dst := make([]float64, 4096)
	for _, bm := range []struct {
		name string
		fill func([]float64, *uint64)
	}{{"Fill", Fill}, {"scalar", fillScalar}} {
		b.Run(bm.name, func(b *testing.B) {
			state := uint64(0x243F6A8885A308D3)
			for i := 0; i < b.N; i++ {
				bm.fill(dst, &state)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/draw")
		})
	}
}
