//go:build amd64

package znorm

import "repro/internal/cpufeat"

// useWindowKernel gates the AVX-512 window kernel; a package variable
// so the tests can force the scalar loop. The wedge test reproduces
// math.Exp's fused-multiply-add path, which math takes on CPUs with
// FMA, so the kernel needs FMA as well; the miss list, the verdict
// placement and the walker's fast path need BMI1, BMI2 and POPCNT.
var useWindowKernel = cpufeat.AVX512 && cpufeat.FMA && cpufeat.BMI2

// windowAVX512 computes steps·8 positions of w from base state s (see
// window). Pass 1, per step: mix eight states, gather the packed kn/wn
// entries and store the eight fast-strip values and their hit mask.
// Pass 2, over the misses listed eight at a time: each one's wedge test
// and fallback bit, exactly as Norm computes them, stored as a byte per
// group and then deposited at each word's misses.
//
//go:noescape
func windowAVX512(w *window, s uint64, steps int)

// walkAVX512 is the walker's fast path (see window.walk): from the draw
// start p, with room ≥ 1 values left at dst, it walks words as walk's
// Go word body does, in registers, and compacts their emitted values
// into dst. It stops at n, once dst is full, or at a draw start where
// a fallback begins, and returns the number of values written and the
// next draw start.
//
//go:noescape
func walkAVX512(w *window, dst *float64, room, p, n int) (o, q int)

// expAVX512 is math.Exp's FMA path lane by lane over n values, n a
// multiple of eight; the wedge test's exp, exposed for its tests.
//
//go:noescape
func expAVX512(dst, src *float64, n int)

// walkWords is the walker's fast path where the kernel runs; otherwise
// it walks nothing. dst must not be empty.
func walkWords(w *window, dst []float64, p, n int) (o, q int) {
	if useWindowKernel {
		return walkAVX512(w, &dst[0], len(dst), p, n)
	}
	return 0, p
}

// fillWindowed is Fill's windowed sampler: the kernel computes a window
// ahead of the state and the walker consumes it, with Norm handling the
// fallbacks. The window lives on the stack.
func fillWindowed(dst []float64, state *uint64) {
	var w window
	s := *state
	for len(dst) > 0 {
		steps := windowSteps(len(dst))
		windowAVX512(&w, s, steps)
		dst = dst[w.walk(dst, &s, steps*laneWidth):]
	}
	*state = s
}
