package sca

import (
	"fmt"
	"math"
)

// CPA is an incremental correlation power analysis engine: it accumulates
// traces one at a time and computes, for every key hypothesis and every
// sample point, the Pearson correlation between the hypothesized leakage
// and the measured power. Memory is O(hypotheses × samples); each Add is
// one pass over the trace per hypothesis.
type CPA struct {
	nHyp    int
	samples int
	count   int

	sumH  []float64 // per hypothesis: Σh
	sumHH []float64 // per hypothesis: Σh²
	sumT  []float64 // per sample: Σt
	sumTT []float64 // per sample: Σt²
	sumHT []float64 // [hyp*samples + s]: Σh·t

	// idx is the indexed row path's staging area (see indexed.go),
	// allocated on first use; never part of the accumulator state.
	idx *indexedScratch
}

// NewCPA returns an engine for nHyp key hypotheses over traces of the
// given sample count.
func NewCPA(nHyp, samples int) (*CPA, error) {
	if nHyp < 2 {
		return nil, fmt.Errorf("sca: need at least 2 hypotheses, got %d", nHyp)
	}
	if samples < 1 {
		return nil, fmt.Errorf("sca: need at least 1 sample, got %d", samples)
	}
	return &CPA{
		nHyp:    nHyp,
		samples: samples,
		sumH:    make([]float64, nHyp),
		sumHH:   make([]float64, nHyp),
		sumT:    make([]float64, samples),
		sumTT:   make([]float64, samples),
		sumHT:   make([]float64, nHyp*samples),
	}, nil
}

// MustNewCPA is NewCPA that panics on bad dimensions.
func MustNewCPA(nHyp, samples int) *CPA {
	c, err := NewCPA(nHyp, samples)
	if err != nil {
		panic(err)
	}
	return c
}

// Add accumulates one trace with its per-hypothesis leakage predictions
// (len(hyp) == hypotheses, len(t) == samples). Accumulation order is
// the determinism contract of the whole analysis chain: adding the same
// traces in the same order always produces bit-identical sums, and
// AddBatch is defined relative to this serial reference.
func (c *CPA) Add(t []float64, hyp []float64) error {
	if len(t) != c.samples {
		return fmt.Errorf("sca: trace has %d samples, want %d", len(t), c.samples)
	}
	if len(hyp) != c.nHyp {
		return fmt.Errorf("sca: %d hypotheses, want %d", len(hyp), c.nHyp)
	}
	sumSqInto(c.sumT, c.sumTT, t)
	for k, h := range hyp {
		c.sumH[k] += h
		c.sumHH[k] += h * h
		axpy(c.sumHT[k*c.samples:(k+1)*c.samples], t, h)
	}
	c.count++
	return nil
}

// AddBatch accumulates a batch of traces with their per-hypothesis
// predictions (hyps[i][k] predicts trace i under hypothesis k). It is
// bit-identical to calling Add(traces[i], hyps[i]) in ascending i —
// every accumulator element still receives its per-trace contributions
// in trace order, floating-point association unchanged — but the loop
// nest is rearranged so the Σh·t accumulation runs cache-blocked, and,
// when the hypothesis vectors draw from a small alphabet (Hamming
// weights and distances do), through the add-only indexed kernel of
// indexed.go. Which kernel runs is pure speed policy; the accumulator
// bits never depend on it. This is the engine's reduction hot path.
func (c *CPA) AddBatch(traces, hyps [][]float64) error {
	if len(traces) != len(hyps) {
		return fmt.Errorf("sca: batch of %d traces with %d hypothesis vectors", len(traces), len(hyps))
	}
	for i := range traces {
		if len(traces[i]) != c.samples {
			return fmt.Errorf("sca: trace %d of batch has %d samples, want %d", i, len(traces[i]), c.samples)
		}
		if len(hyps[i]) != c.nHyp {
			return fmt.Errorf("sca: trace %d of batch has %d hypotheses, want %d", i, len(hyps[i]), c.nHyp)
		}
	}
	for _, t := range traces {
		sumSqInto(c.sumT, c.sumTT, t)
	}
	for _, h := range hyps {
		for k, hv := range h {
			c.sumH[k] += hv
			c.sumHH[k] += hv * hv
		}
	}
	c.addRows(traces, hyps)
	c.count += len(traces)
	return nil
}

// axpyGeneric performs dst[s] += a * x[s] over the common length — the
// portable reference kernel. Element order is preserved exactly; the
// unroll only removes loop and bounds overhead from the accumulation.
// Every per-element operation is a distinct multiply followed by a
// distinct add, the sequence the vector kernel reproduces lane for lane
// (no fused multiply-add anywhere, so results are bit-identical).
func axpyGeneric(dst, x []float64, a float64) {
	n := len(x)
	if len(dst) < n {
		n = len(dst)
	}
	dst = dst[:n]
	x = x[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += a * x[i]
		dst[i+1] += a * x[i+1]
		dst[i+2] += a * x[i+2]
		dst[i+3] += a * x[i+3]
	}
	for ; i < n; i++ {
		dst[i] += a * x[i]
	}
}

// axpy4Generic applies four traces to one accumulator row in a single
// pass: per element, the four scaled contributions are added strictly
// in trace order, so the result is bit-identical to four sequential
// axpy calls — the row is just loaded and stored once instead of four
// times.
func axpy4Generic(dst, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64) {
	n := len(dst)
	for _, x := range [4][]float64{x0, x1, x2, x3} {
		if len(x) < n {
			n = len(x)
		}
	}
	dst = dst[:n]
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for i := 0; i < n; i++ {
		v := dst[i]
		v += a0 * x0[i]
		v += a1 * x1[i]
		v += a2 * x2[i]
		v += a3 * x3[i]
		dst[i] = v
	}
}

// Count returns the number of accumulated traces.
func (c *CPA) Count() int { return c.count }

// Reset clears the accumulator for reuse.
func (c *CPA) Reset() {
	clear(c.sumH)
	clear(c.sumHH)
	clear(c.sumT)
	clear(c.sumTT)
	clear(c.sumHT)
	c.count = 0
}

// Clone returns an independent deep copy of the accumulator state.
func (c *CPA) Clone() *CPA {
	o := MustNewCPA(c.nHyp, c.samples)
	o.count = c.count
	copy(o.sumH, c.sumH)
	copy(o.sumHH, c.sumHH)
	copy(o.sumT, c.sumT)
	copy(o.sumTT, c.sumTT)
	copy(o.sumHT, c.sumHT)
	return o
}

// Equal reports whether two accumulators hold bit-identical state — the
// strict equivalence the streaming engine's determinism tests assert.
func (c *CPA) Equal(o *CPA) bool {
	if c.nHyp != o.nHyp || c.samples != o.samples || c.count != o.count {
		return false
	}
	eq := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	return eq(c.sumH, o.sumH) && eq(c.sumHH, o.sumHH) &&
		eq(c.sumT, o.sumT) && eq(c.sumTT, o.sumTT) && eq(c.sumHT, o.sumHT)
}

// Corr returns the correlation of hypothesis k at sample s.
func (c *CPA) Corr(k, s int) float64 {
	n := float64(c.count)
	if c.count < 2 {
		return 0
	}
	num := n*c.sumHT[k*c.samples+s] - c.sumH[k]*c.sumT[s]
	dh := n*c.sumHH[k] - c.sumH[k]*c.sumH[k]
	dt := n*c.sumTT[s] - c.sumT[s]*c.sumT[s]
	den := math.Sqrt(dh) * math.Sqrt(dt)
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}

// CorrTrace returns the correlation-vs-time curve of hypothesis k — the
// curve plotted in the paper's Figures 3 and 4.
func (c *CPA) CorrTrace(k int) []float64 {
	out := make([]float64, c.samples)
	for s := range out {
		out[s] = c.Corr(k, s)
	}
	return out
}

// Peak returns the maximum absolute correlation of hypothesis k and the
// sample where it occurs.
func (c *CPA) Peak(k int) (corr float64, sample int) {
	best, idx := 0.0, 0
	for s := 0; s < c.samples; s++ {
		r := c.Corr(k, s)
		if math.Abs(r) > math.Abs(best) {
			best, idx = r, s
		}
	}
	return best, idx
}

// Attack summarizes a finished CPA: per-hypothesis peak correlations
// sorted into a ranking.
type Attack struct {
	// Peaks holds each hypothesis's maximum absolute correlation.
	Peaks []float64
	// PeakSamples holds the sample index of each hypothesis's peak.
	PeakSamples []int
	// Ranking lists hypotheses from strongest to weakest peak.
	Ranking []int
	// Traces is the number of traces accumulated.
	Traces int
}

// Result computes the attack summary.
func (c *CPA) Result() *Attack {
	a := &Attack{
		Peaks:       make([]float64, c.nHyp),
		PeakSamples: make([]int, c.nHyp),
		Ranking:     make([]int, c.nHyp),
		Traces:      c.count,
	}
	for k := 0; k < c.nHyp; k++ {
		r, s := c.Peak(k)
		a.Peaks[k] = r
		a.PeakSamples[k] = s
		a.Ranking[k] = k
	}
	// Insertion sort by |peak| descending: nHyp is small (256).
	for i := 1; i < len(a.Ranking); i++ {
		for j := i; j > 0; j-- {
			x, y := a.Ranking[j-1], a.Ranking[j]
			if math.Abs(a.Peaks[y]) > math.Abs(a.Peaks[x]) {
				a.Ranking[j-1], a.Ranking[j] = y, x
			} else {
				break
			}
		}
	}
	return a
}

// Best returns the top-ranked hypothesis and its peak correlation.
func (a *Attack) Best() (hyp int, corr float64) {
	h := a.Ranking[0]
	return h, a.Peaks[h]
}

// RankOf returns the 0-based rank of a hypothesis (0 = best).
func (a *Attack) RankOf(hyp int) int {
	for i, k := range a.Ranking {
		if k == hyp {
			return i
		}
	}
	return -1
}

// Margin returns the peak correlations of the best and second-best
// hypotheses.
func (a *Attack) Margin() (best, second float64) {
	if len(a.Ranking) < 2 {
		return math.Abs(a.Peaks[a.Ranking[0]]), 0
	}
	return math.Abs(a.Peaks[a.Ranking[0]]), math.Abs(a.Peaks[a.Ranking[1]])
}

// DistinguishConfidence returns the confidence with which the top-ranked
// hypothesis beats the runner-up, per the Fisher z difference test the
// paper applies in §5 ("the correct key is distinguishable from the best
// wrong guess with a statistical confidence > 99%").
func (a *Attack) DistinguishConfidence() float64 {
	best, second := a.Margin()
	return CorrDifferenceConfidence(best, second, a.Traces)
}
