//go:build amd64

package znorm

import "repro/internal/cpufeat"

// useWindowKernel gates the AVX-512 window kernel; a package variable
// so the tests can force the scalar loop.
var useWindowKernel = cpufeat.AVX512

// windowAVX512 computes steps·8 positions of w from base state s (see
// window): per step it mixes eight states, gathers the packed kn/wn
// entries and stores the eight fast-strip values and their hit mask.
//
//go:noescape
func windowAVX512(w *window, s uint64, steps int)

// fillWindowed is Fill's windowed sampler: the kernel computes a window
// ahead of the state and the walker consumes it, with Norm handling the
// misses. The window lives on the stack.
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
