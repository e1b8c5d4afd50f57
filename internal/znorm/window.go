package znorm

import (
	"math"
	"math/bits"
)

// windowLen is the number of stream positions one kernel call covers:
// long enough that a Table 2 trace's 16 averaged executions (1792
// draws) take four windows, small enough (about 5 KiB with its masks)
// that the window lives on Fill's stack.
const windowLen = 512

// laneWidth is the number of positions the kernel computes per step,
// one per 64-bit lane of a ZMM register.
const laneWidth = 8

// windowWords is the number of 64-position words in a window.
const windowWords = windowLen / 64

// window holds the kernel's output for up to windowLen consecutive
// stream positions after a base state s. Position p is the draw that
// mixes s + (p+1)·γ, with j its top 32 bits and i = j & 0x7f its strip:
//
//   - vals[p] is its fast-strip value float64(j)·wn[i];
//   - bit p of hits is set when it lands in the fast strip, |j| < kn[i];
//   - at a miss in a wedge strip, bit p of accept is Norm's wedge test
//     with the uniform drawn from position p+1:
//     fn[i] + float32(u)·(fn[i−1]−fn[i]) < float32(exp(−.5·x²));
//   - at a miss, bit p of fallback is set when Norm must run itself:
//     the base-strip tail (i == 0) or a uniform of exactly 1, which
//     Norm redraws.
//
// Bit p of a mask lives in byte p/8, bit p%8, so the kernel stores one
// hits byte per eight-lane step; accept and fallback are clear at hits.
// misses is the kernel's own scratch: the positions of the misses in
// order, with room for one full eight-lane load past the last.
type window struct {
	vals     [windowLen]float64
	hits     [windowWords]uint64
	accept   [windowWords]uint64
	fallback [windowWords]uint64
	misses   [windowLen + laneWidth]uint16
}

// windowSteps is the number of kernel steps a fill of n draws needs
// from one window: enough positions to cover n, at most a full window.
func windowSteps(n int) int {
	return min((n+laneWidth-1)/laneWidth, windowLen/laneWidth)
}

// walk turns the first n computed positions of w into draws. w was
// computed from base state *s; dst receives the draws in order. walk
// stops once dst is full or the window is used up, advances *s past
// every draw consumed and returns the number of values written.
//
// A draw starts at a hit (one position, its value emitted), at a wedge
// miss (two positions: the value is emitted if accept is set) or at a
// fallback, where Norm runs from the state before that position and
// the walk resumes where Norm stopped. Walked from a draw start, a
// word's draws follow from its masks alone up to its first fallback
// (see missStarts), so walk compacts each word's emitted values into
// dst in one call and calls Norm only at fallbacks.
func (w *window) walk(dst []float64, s *uint64, n int) int {
	base := *s
	o, p := 0, 0
	for p < n && o < len(dst) {
		k, b := p>>6, p&63
		end := min(n-k*64, 64)
		live := ^uint64(0) << b & (^uint64(0) >> (64 - end))
		starts := missStarts(^w.hits[k] & live)
		if f := w.fallback[k] & starts; f != 0 {
			q := bits.TrailingZeros64(f)
			if q == b {
				st := base + uint64(p)*gamma
				dst[o] = Norm(&st)
				o++
				p = int((st - base) * gammaInv)
				continue
			}
			// Stop before the fallback: the miss before it, if any,
			// is consumed, so it does not consume the fallback.
			live &= 1<<q - 1
			starts &= live
		}
		emit := live &^ (starts << 1) & (w.hits[k] | starts&w.accept[k])
		last := 63 - bits.LeadingZeros64(live)
		if room := len(dst) - o; bits.OnesCount64(emit) >= room {
			// dst fills in this word: keep the first room draws and
			// end at the last of them.
			rest := emit
			for range room {
				rest &= rest - 1
			}
			emit &^= rest
			last = 63 - bits.LeadingZeros64(emit)
		}
		c := bits.OnesCount64(emit)
		compress(dst[o:o+c], w.vals[k*64:k*64+64], emit)
		o += c
		// A miss starting a draw at the word's last position consumes
		// the position after it.
		p = k*64 + last + 1 + int(starts>>last&1)
	}
	*s = base + uint64(p)*gamma
	return o
}

// missStarts returns the misses that start a draw, for a word's misses
// from a draw start on. A miss that starts a draw consumes the next
// position as its uniform, whatever that position holds; a consumed
// position starts nothing. So in every run of adjacent misses the
// first starts a draw (the position before it is a hit or outside the
// mask) and starts alternate from there. Adding a run's first bit to
// the misses carries through the run and clears it, which isolates the
// runs that begin on even and on odd positions.
func missStarts(miss uint64) uint64 {
	const even = 0x5555555555555555
	first := miss &^ (miss << 1)
	runsEven := miss &^ (miss + first&even)
	runsOdd := miss &^ (miss + first&^even)
	return runsEven&even | runsOdd&^even
}

// compressGo writes the values of vals at the set bits of emit, in
// order, to dst: the reference for the vector compaction.
func compressGo(dst, vals []float64, emit uint64) {
	for o := 0; emit != 0; o++ {
		dst[o] = vals[bits.TrailingZeros64(emit)]
		emit &= emit - 1
	}
}

// knwn packs the fast-strip tables for the kernel's first gather:
// entry i holds kn[i] in its low 32 bits and the bits of wn[i] in its
// high 32.
var knwn = func() (t [128]uint64) {
	for i := range t {
		t[i] = uint64(kn[i]) | uint64(math.Float32bits(wn[i]))<<32
	}
	return t
}()

// fnwedge packs the wedge tables for the kernel's second gather: entry
// i holds fn[i] in its low 32 bits and the float32 difference
// fn[i−1]−fn[i] in its high 32, the operands of Norm's wedge test. The
// base strip has no wedge; its entry holds fn[0] and zero.
var fnwedge = func() (t [128]uint64) {
	for i := range t {
		var d float32
		if i > 0 {
			d = fn[i-1] - fn[i]
		}
		t[i] = uint64(math.Float32bits(fn[i])) | uint64(math.Float32bits(d))<<32
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
