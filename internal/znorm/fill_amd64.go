//go:build amd64

package znorm

import "repro/internal/cpufeat"

// useWindowKernel gates the AVX-512 window kernel; a package variable
// so the tests can force the scalar loop. The wedge test reproduces
// math.Exp's fused-multiply-add path, which math takes on CPUs with
// FMA, so the kernel needs FMA as well.
var useWindowKernel = cpufeat.AVX512 && cpufeat.FMA

// windowAVX512 computes steps·8 positions of w from base state s (see
// window). Pass 1, per step: mix eight states, gather the packed kn/wn
// entries and store the eight fast-strip values and their hit mask.
// Pass 2, over the misses listed eight at a time: each one's wedge test
// and fallback bit, exactly as Norm computes them.
//
//go:noescape
func windowAVX512(w *window, s uint64, steps int)

// compressAVX512 writes vals[p] for every set bit p of emit, in order,
// to dst: eight VCOMPRESSPD steps, each stored under a mask that
// covers only the values it emits, so nothing past the last emitted
// value is written.
//
//go:noescape
func compressAVX512(dst, vals *float64, emit uint64)

// expAVX512 is math.Exp's FMA path lane by lane over n values, n a
// multiple of eight; the wedge test's exp, exposed for its tests.
//
//go:noescape
func expAVX512(dst, src *float64, n int)

// compress is the walker's compaction of one word (see compressGo).
func compress(dst, vals []float64, emit uint64) {
	if useWindowKernel && emit != 0 {
		compressAVX512(&dst[0], &vals[0], emit)
		return
	}
	compressGo(dst, vals, emit)
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
