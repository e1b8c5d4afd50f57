package znorm

import (
	"math"
	"math/bits"
)

// windowLen is the number of stream positions one kernel call covers.
// Fill zeroes one window per call, so a window is kept small (1 KiB of
// values) yet long enough for the common trace lengths, 64 to 127
// draws for the Table 2 scans, to fit in one kernel call.
const windowLen = 128

// laneWidth is the number of positions the kernel computes per step,
// one per 64-bit lane of a ZMM register.
const laneWidth = 8

// window holds the kernel's output for up to windowLen consecutive
// stream positions after a base state s. Position p is the draw that
// mixes s + (p+1)·γ: vals[p] is its fast-strip value float64(j)·wn[i]
// and bit p of hits is set when it lands in the fast strip,
// |j| < kn[i]. Bit p lives in byte p/8 of hits, bit p%8, so the kernel
// stores one mask byte per eight-lane step.
type window struct {
	vals [windowLen]float64
	hits [windowLen / 64]uint64
}

// windowSteps is the number of kernel steps a fill of n draws needs
// from one window: enough positions to cover n, at most a full window.
func windowSteps(n int) int {
	return min((n+laneWidth-1)/laneWidth, windowLen/laneWidth)
}

// walk turns the first n computed positions of w into draws. w was
// computed from base state *s; dst receives the draws in order. Each
// run of hits is copied as is; at a miss, Norm runs from the state
// before that position and the walk resumes at the position Norm
// stopped at, which may lie past n. walk stops once dst is full or the
// window is used up, advances *s past every draw consumed and returns
// the number of values written.
func (w *window) walk(dst []float64, s *uint64, n int) int {
	base := *s
	o, p := 0, 0
	for p < n && o < len(dst) {
		run := bits.TrailingZeros64(^(w.hits[p>>6] >> (p & 63)))
		run = min(run, n-p, len(dst)-o)
		if run > 0 {
			copy(dst[o:o+run], w.vals[p:p+run])
			o += run
			p += run
			continue
		}
		st := base + uint64(p)*gamma
		dst[o] = Norm(&st)
		o++
		p = int((st - base) * gammaInv)
	}
	*s = base + uint64(p)*gamma
	return o
}

// knwn packs the fast-strip tables for the kernel's single gather:
// entry i holds kn[i] in its low 32 bits and the bits of wn[i] in its
// high 32.
var knwn = func() (t [128]uint64) {
	for i := range t {
		t[i] = uint64(kn[i]) | uint64(math.Float32bits(wn[i]))<<32
	}
	return t
}()

// laneGamma[k] is (k+1)·γ: the state offsets of one kernel step's
// eight positions from the step's base state.
var laneGamma = func() (t [laneWidth]uint64) {
	for k := range t {
		t[k] = uint64(k+1) * gamma
	}
	return t
}()
