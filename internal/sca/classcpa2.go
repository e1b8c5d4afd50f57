package sca

import (
	"fmt"
	"math"
)

// Window is a half-open range [Lo, Hi) of raw sample indices.
type Window struct{ Lo, Hi int }

// Pairs returns the window's unordered sample pairs, diagonal included.
func (w Window) Pairs() int {
	n := w.Hi - w.Lo
	return n * (n + 1) / 2
}

// The second-order combining layout. A raw trace t becomes, for every
// window in order and every pair (i, j) of that window with i <= j in
// lexicographic order, the centered product
//
//	c_ij = (t[i] − μ[i]) · (t[j] − μ[j])
//
// where μ is a fixed centering vector (the engine uses the mean trace of
// the run's own traces). Including the diagonal matters: a dual-issued
// share pair leaks both shares in the *same* cycle, where the
// second-order signal lives in the centered square (the variance of
// HW(s0)+HW(s1) is key-dependent), not in a cross product of two
// distinct cycles. Given μ, the combined trace is a pure function of the
// raw trace, so it commutes with any scheduling.

// Order2Len returns the combined-trace length of windows.
func Order2Len(windows []Window) int {
	n := 0
	for _, w := range windows {
		n += w.Pairs()
	}
	return n
}

// Order2Pair maps combined sample index s back to its raw index pair
// (i <= j), inverting Order2Combine's layout; (-1, -1) when s is out of
// range.
func Order2Pair(windows []Window, s int) (i, j int) {
	if s < 0 {
		return -1, -1
	}
	for _, w := range windows {
		for i = w.Lo; i < w.Hi; i++ {
			row := w.Hi - i // pairs (i,i)..(i,Hi-1)
			if s < row {
				return i, i + s
			}
			s -= row
		}
	}
	return -1, -1
}

// Order2Combine writes the centered products of t's windows into dst
// (length Order2Len(windows)), centered on means.
func Order2Combine(dst, t, means []float64, windows []Window) {
	k := 0
	for _, w := range windows {
		for i := w.Lo; i < w.Hi; i++ {
			ci := t[i] - means[i]
			for j := i; j < w.Hi; j++ {
				dst[k] = ci * (t[j] - means[j])
				k++
			}
		}
	}
}

var _ Accumulator = (*ClassCPA2)(nil)

// ClassCPA2 is a second-order conditional-sum CPA engine: it attacks a
// first-order masked implementation by expanding each raw trace into
// the centered products of one window's sample pairs (Order2Combine)
// and feeding the combined trace to an ordinary ClassCPA over the pair
// space, so all of the conditional-sum machinery — class bucketing,
// the fused ranking pass, the pinned vector kernels — is reused
// unchanged.
//
// Determinism contract. The centering vector is a constructor
// constant, so each combined trace is a pure function of its raw trace
// alone, and the inner ClassCPA receives combined traces in arrival
// order: AddBatch is bit-identical to per-trace Add calls in trace
// order — the same pin the first-order kernels carry.
type ClassCPA2 struct {
	inner      *ClassCPA
	rawSamples int
	windows    []Window // exactly one
	means      []float64
	comb       []float64 // pair-expansion scratch, reused across Adds
}

// NewClassCPA2 returns a second-order engine over raw traces of
// rawSamples points. table is the hypothesis table of the inner
// ClassCPA (table[p][k] = hypothesis k's prediction for class p), means
// the centering vector (length rawSamples), and [lo, hi) the combining
// window over raw sample indices; hi == 0 selects the full trace.
func NewClassCPA2(rawSamples int, table [][]float64, means []float64, lo, hi int) (*ClassCPA2, error) {
	if rawSamples < 1 {
		return nil, fmt.Errorf("sca: need at least 1 raw sample, got %d", rawSamples)
	}
	if len(means) != rawSamples {
		return nil, fmt.Errorf("sca: centering vector has %d samples, want %d", len(means), rawSamples)
	}
	if hi == 0 {
		hi = rawSamples
	}
	if lo < 0 || hi > rawSamples || lo >= hi {
		return nil, fmt.Errorf("sca: combining window [%d,%d) out of [0,%d)", lo, hi, rawSamples)
	}
	w := Window{lo, hi}
	inner, err := NewClassCPA(w.Pairs(), table)
	if err != nil {
		return nil, err
	}
	c := &ClassCPA2{
		inner:      inner,
		rawSamples: rawSamples,
		windows:    []Window{w},
		means:      make([]float64, rawSamples),
		comb:       make([]float64, w.Pairs()),
	}
	copy(c.means, means)
	return c, nil
}

// MustNewClassCPA2 is NewClassCPA2 that panics on bad arguments.
func MustNewClassCPA2(rawSamples int, table [][]float64, means []float64, lo, hi int) *ClassCPA2 {
	c, err := NewClassCPA2(rawSamples, table, means, lo, hi)
	if err != nil {
		panic(err)
	}
	return c
}

// Pairs returns the combined-sample count.
func (c *ClassCPA2) Pairs() int { return c.inner.samples }

// PairOf maps a combined sample index back to its raw index pair
// (i <= j); (-1, -1) when out of range.
func (c *ClassCPA2) PairOf(s int) (i, j int) { return Order2Pair(c.windows, s) }

// Hypotheses returns the hypothesis count.
func (c *ClassCPA2) Hypotheses() int { return c.inner.nHyp }

// Count returns the number of accumulated traces.
func (c *ClassCPA2) Count() int { return c.inner.count }

// Add accumulates one raw trace under its model-input class. The same
// (class, trace) sequence always leaves bit-identical state.
func (c *ClassCPA2) Add(class int, t []float64) error {
	if len(t) != c.rawSamples {
		return fmt.Errorf("sca: trace has %d samples, want %d", len(t), c.rawSamples)
	}
	Order2Combine(c.comb, t, c.means, c.windows)
	return c.inner.Add(class, c.comb)
}

// AddBatch accumulates a batch of raw traces under their classes. It is
// bit-identical to calling Add(classes[i], traces[i]) in ascending i,
// and like the other batch kernels it validates the whole batch before
// touching any state.
func (c *ClassCPA2) AddBatch(classes []int, traces [][]float64) error {
	if len(classes) != len(traces) {
		return fmt.Errorf("sca: batch of %d traces with %d classes", len(traces), len(classes))
	}
	for i, t := range traces {
		if len(t) != c.rawSamples {
			return fmt.Errorf("sca: trace %d of batch has %d samples, want %d", i, len(t), c.rawSamples)
		}
		if classes[i] < 0 || classes[i] >= c.inner.classes {
			return fmt.Errorf("sca: trace %d of batch has class %d out of [0,%d)", i, classes[i], c.inner.classes)
		}
	}
	for i, t := range traces {
		if err := c.Add(classes[i], t); err != nil {
			return err
		}
	}
	return nil
}

// Reset clears the accumulator for reuse; the centering vector and
// window are retained.
func (c *ClassCPA2) Reset() { c.inner.Reset() }

// Clone returns an independent deep copy of the accumulator state.
func (c *ClassCPA2) Clone() *ClassCPA2 {
	o := *c
	o.inner = c.inner.Clone()
	o.means = append([]float64(nil), c.means...)
	o.comb = make([]float64, len(c.comb))
	return &o
}

// Equal reports whether two accumulators hold bit-identical state —
// the strict equivalence the determinism tests assert.
func (c *ClassCPA2) Equal(o *ClassCPA2) bool {
	if c.rawSamples != o.rawSamples || c.windows[0] != o.windows[0] {
		return false
	}
	for i := range c.means {
		if math.Float64bits(c.means[i]) != math.Float64bits(o.means[i]) {
			return false
		}
	}
	return c.inner.Equal(o.inner)
}

// Corr returns the correlation of hypothesis k at combined sample s.
func (c *ClassCPA2) Corr(k, s int) float64 { return c.inner.Corr(k, s) }

// CorrTrace returns hypothesis k's correlation curve over the combined
// pair space (index via PairOf).
func (c *ClassCPA2) CorrTrace(k int) []float64 { return c.inner.CorrTrace(k) }

// Peak returns hypothesis k's maximum absolute correlation over all
// pairs and the combined sample index where it occurs.
func (c *ClassCPA2) Peak(k int) (corr float64, sample int) { return c.inner.Peak(k) }

// Result computes the ranking summary over all hypotheses.
func (c *ClassCPA2) Result() *Attack { return c.inner.Result() }
