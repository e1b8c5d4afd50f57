package sca

import (
	"fmt"
	"math"
)

// Accumulator is the read side shared by the streaming correlation
// engines: everything an attack evaluates after (or while) traces
// accumulate. CPA implements it by maintaining the Pearson sums
// directly; ClassCPA by computing them on demand from per-class trace
// sums.
type Accumulator interface {
	// Count returns the number of accumulated traces.
	Count() int
	// Corr returns the correlation of hypothesis k at sample s.
	Corr(k, s int) float64
	// CorrTrace returns hypothesis k's correlation-vs-time curve.
	CorrTrace(k int) []float64
	// Peak returns hypothesis k's maximum absolute correlation and its
	// sample index.
	Peak(k int) (corr float64, sample int)
	// Result computes the ranking summary over all hypotheses.
	Result() *Attack
}

var (
	_ Accumulator = (*CPA)(nil)
	_ Accumulator = (*ClassCPA)(nil)
)

// ClassCPA is a streaming CPA engine for table-driven leakage models:
// attacks where every hypothesis's prediction for a trace is a function
// of one small model input — for the paper's Figure 3 model,
// HW(SubBytes(pt[b] ^ k)) depends only on the plaintext byte. Instead
// of accumulating 256 hypothesis rows per trace, it buckets traces by
// the model input ("class") and keeps one running sum per class; every
// Pearson sum the correlation needs is then derived exactly from the
// class sums and the hypothesis table:
//
//	Σh   = Σ_p n_p·H[p][k]      Σh·t = Σ_p H[p][k]·S_p[t]
//
// where n_p counts and S_p sums the traces of class p. This is the
// conditional-sum optimization of classical CPA tooling: per-trace cost
// drops from hypotheses×samples multiply-adds to a single samples-long
// add, with the hypothesis dimension paid once at evaluation time.
//
// Determinism contract. The accumulator state is a pure function of the
// trace sequence: each class sum receives its traces' samples in
// arrival order (one rounded add per trace), and arrival order is trace
// order under the engine's ordered reduction — so the state never
// depends on workers, chunking or lane width. Every Pearson sum is
// computed on demand as one serial chain per element over the
// non-empty classes in ascending index, starting from +0 (an empty
// class would contribute a ±0 that cannot change any accumulated bit),
// so every statistic is a pure function of the state. Add the same
// traces in the same order and every correlation is bit-identical,
// whether the ranking kernel or the one-row path computes it.
type ClassCPA struct {
	classes int
	nHyp    int
	samples int
	count   int

	table    []float64 // [p*nHyp + k]: hypothesis k's prediction for class p
	classN   []int64   // per class: trace count
	classSum []float64 // [p*samples + s]: Σt over the class's traces
	sumT     []float64 // per sample: Σt
	sumTT    []float64 // per sample: Σt²
}

// NewClassCPA returns a class-sum engine over the given hypothesis
// table: table[p][k] is hypothesis k's predicted leakage for model-input
// class p. All rows must share one length (the hypothesis count, >= 2).
func NewClassCPA(samples int, table [][]float64) (*ClassCPA, error) {
	if samples < 1 {
		return nil, fmt.Errorf("sca: need at least 1 sample, got %d", samples)
	}
	if len(table) < 1 {
		return nil, fmt.Errorf("sca: need at least 1 model-input class")
	}
	nHyp := len(table[0])
	if nHyp < 2 {
		return nil, fmt.Errorf("sca: need at least 2 hypotheses, got %d", nHyp)
	}
	c := &ClassCPA{
		classes:  len(table),
		nHyp:     nHyp,
		samples:  samples,
		table:    make([]float64, len(table)*nHyp),
		classN:   make([]int64, len(table)),
		classSum: make([]float64, len(table)*samples),
		sumT:     make([]float64, samples),
		sumTT:    make([]float64, samples),
	}
	for p, row := range table {
		if len(row) != nHyp {
			return nil, fmt.Errorf("sca: class %d has %d hypotheses, want %d", p, len(row), nHyp)
		}
		copy(c.table[p*nHyp:], row)
	}
	return c, nil
}

// MustNewClassCPA is NewClassCPA that panics on a bad table.
func MustNewClassCPA(samples int, table [][]float64) *ClassCPA {
	c, err := NewClassCPA(samples, table)
	if err != nil {
		panic(err)
	}
	return c
}

// Classes returns the model-input class count.
func (c *ClassCPA) Classes() int { return c.classes }

// Hypotheses returns the hypothesis count.
func (c *ClassCPA) Hypotheses() int { return c.nHyp }

// Count returns the number of accumulated traces.
func (c *ClassCPA) Count() int { return c.count }

// Add accumulates one trace under its model-input class. Accumulation
// order is the determinism contract: the same (class, trace) sequence
// always leaves bit-identical state.
func (c *ClassCPA) Add(class int, t []float64) error {
	if class < 0 || class >= c.classes {
		return fmt.Errorf("sca: class %d out of [0,%d)", class, c.classes)
	}
	if len(t) != c.samples {
		return fmt.Errorf("sca: trace has %d samples, want %d", len(t), c.samples)
	}
	classAddInto(c.sumT, c.sumTT, c.classSum[class*c.samples:(class+1)*c.samples], t)
	c.classN[class]++
	c.count++
	return nil
}

// AddBatch accumulates a batch of traces with their classes, bit-
// identically to calling Add(classes[i], traces[i]) in ascending i.
func (c *ClassCPA) AddBatch(classes []int, traces [][]float64) error {
	return c.AddBatchEach(classes, traces, nil)
}

// addSpan is the narrowest sample range AddBatchEach hands one call of
// its fan-out. maxParts caps the calls of a fan-out, in AddBatchEach and
// in the ranking pass alike: every ranking call packs each tile anew, so
// more calls than a run has workers cost packing and gain nothing.
const (
	addSpan  = 256
	maxParts = 4
)

// AddBatchEach is AddBatch with the batch's samples cut into ranges
// that each(n, f) runs as f(0) … f(n-1), possibly concurrently; a nil
// each runs the whole trace in one call. Every element of Σt, Σt² and
// the class sums is one chain over the batch's traces in trace order
// whichever range holds it, and the ranges start on multiples of 8, so
// each element takes the same kernel lane it takes in one whole-trace
// call: the state is bit-identical for every each.
func (c *ClassCPA) AddBatchEach(classes []int, traces [][]float64, each func(n int, f func(i int))) error {
	if len(classes) != len(traces) {
		return fmt.Errorf("sca: batch of %d traces with %d classes", len(traces), len(classes))
	}
	for i, t := range traces {
		if len(t) != c.samples {
			return fmt.Errorf("sca: trace %d of batch has %d samples, want %d", i, len(t), c.samples)
		}
		if classes[i] < 0 || classes[i] >= c.classes {
			return fmt.Errorf("sca: trace %d of batch has class %d, out of [0,%d)", i, classes[i], c.classes)
		}
	}
	if parts := min(c.samples/addSpan, maxParts); each == nil || parts < 2 {
		c.addRange(classes, traces, 0, c.samples)
	} else {
		span := (c.samples/parts + 7) &^ 7
		each((c.samples+span-1)/span, func(i int) {
			c.addRange(classes, traces, i*span, min((i+1)*span, c.samples))
		})
	}
	for _, p := range classes {
		c.classN[p]++
	}
	c.count += len(traces)
	return nil
}

// addRange adds the samples [lo,hi) of a validated batch into Σt, Σt²
// and the class sums, trace by trace.
func (c *ClassCPA) addRange(classes []int, traces [][]float64, lo, hi int) {
	for i, t := range traces {
		row := c.classSum[classes[i]*c.samples:]
		classAddInto(c.sumT[lo:hi], c.sumTT[lo:hi], row[lo:hi], t[lo:hi])
	}
}

// rankTile is the ranking pass's sample-tile width: one hypothesis's
// tile fills four ZMM registers in the AVX-512 kernel.
const rankTile = 32

// window clamps the sample window [lo,hi) to the trace: a negative lo
// becomes 0, and an empty or overlong hi becomes the trace length.
func (c *ClassCPA) window(lo, hi int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo || hi > c.samples {
		hi = c.samples
	}
	return lo, hi
}

// hypTerms returns hypothesis k's Σh and √(nΣh² − (Σh)²), the
// hypothesis half of the Pearson denominator. Σh = Σ_p n_p·H[p][k] and
// Σh² = Σ_p n_p·H[p][k]² run over the classes in ascending index,
// empty classes skipped.
func (c *ClassCPA) hypTerms(k int) (sumH, rootH float64) {
	var sumHH float64
	for p, np := range c.classN {
		if np == 0 {
			continue
		}
		h := c.table[p*c.nHyp+k]
		sumH += float64(np) * h
		sumHH += float64(np) * (h * h)
	}
	n := float64(c.count)
	return sumH, math.Sqrt(n*sumHH - sumH*sumH)
}

// corrs returns hypothesis k's correlations at the samples [lo,hi),
// building its Σh·t row on demand: one ascending-class axpy per
// non-empty class into a +0 row — per element the same rounding chain
// as the ranking kernel.
func (c *ClassCPA) corrs(k, lo, hi int) []float64 {
	row := make([]float64, hi-lo)
	if c.count < 2 {
		return row
	}
	for p, np := range c.classN {
		if np != 0 {
			axpy(row, c.classSum[p*c.samples+lo:p*c.samples+hi], c.table[p*c.nHyp+k])
		}
	}
	sumH, rootH := c.hypTerms(k)
	n := float64(c.count)
	for i, ht := range row {
		row[i] = pearson(n, ht, sumH, c.sumT[lo+i], rootH, c.rootT(lo+i))
	}
	return row
}

// rootT returns √(nΣt² − (Σt)²) at sample s, the trace half of the
// Pearson denominator.
func (c *ClassCPA) rootT(s int) float64 {
	n := float64(c.count)
	return math.Sqrt(n*c.sumTT[s] - c.sumT[s]*c.sumT[s])
}

// pearson closes a correlation from its sums: n traces, Σh·t = ht,
// Σh = sumH, Σt = sumT, and the two square-rooted denominator halves.
// A zero or NaN denominator (a constant hypothesis or sample) yields 0.
func pearson(n, ht, sumH, sumT, rootH, rootT float64) float64 {
	num := n*ht - sumH*sumT
	den := rootH * rootT
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}

// Corr returns the correlation of hypothesis k at sample s.
func (c *ClassCPA) Corr(k, s int) float64 { return c.corrs(k, s, s+1)[0] }

// CorrTrace returns the correlation-vs-time curve of hypothesis k.
func (c *ClassCPA) CorrTrace(k int) []float64 { return c.corrs(k, 0, c.samples) }

// Peak returns the maximum absolute correlation of hypothesis k and the
// sample where it occurs: PeakIn over the whole trace.
func (c *ClassCPA) Peak(k int) (corr float64, sample int) {
	return c.PeakIn(k, 0, c.samples, false)
}

// PeakIn returns hypothesis k's peak correlation within the sample
// window [lo,hi). Out-of-range bounds clamp to the trace; when signed
// is set the peak is the maximum signed correlation rather than the
// maximum magnitude. The window's first sample seeds the peak and a
// later sample replaces it only by outranking it, so ties go to the
// earliest sample.
func (c *ClassCPA) PeakIn(k, lo, hi int, signed bool) (corr float64, sample int) {
	lo, hi = c.window(lo, hi)
	if lo >= hi {
		return 0, lo
	}
	rs := c.corrs(k, lo, hi)
	return scanPeak(rs, lo, rs[0], lo, signed)
}

// ResultIn computes the attack summary restricted to the sample window
// [lo,hi), ranking hypotheses by signed correlation when signed is set.
// Windowing confines the peak search to where the attacked operation
// actually executes, suppressing deterministic ghost peaks from other
// cipher operations; signed ranking resolves the exact complement
// ambiguity of XOR-Hamming-weight models, where hypothesis k^0xff
// predicts the precise negation of hypothesis k and |r| alone cannot
// separate the two. Result is the (whole-trace, magnitude) special
// case. Every peak is bit-identical to PeakIn's.
func (c *ClassCPA) ResultIn(lo, hi int, signed bool) *Attack {
	return c.ResultInEach(lo, hi, signed, nil)
}

// ResultInEach is ResultIn with the hypotheses cut into runs of whole
// quads that each(n, f) runs as f(0) … f(n-1), possibly concurrently;
// a nil each ranks them all in one call. A hypothesis's peak depends
// only on its own correlations, which no cut changes, and the ranking
// sort runs after every peak is in, so the summary is bit-identical for
// every each.
func (c *ClassCPA) ResultInEach(lo, hi int, signed bool, each func(n int, f func(i int))) *Attack {
	lo, hi = c.window(lo, hi)
	a := &Attack{
		Peaks:       make([]float64, c.nHyp),
		PeakSamples: make([]int, c.nHyp),
		Ranking:     make([]int, c.nHyp),
		Traces:      c.count,
	}
	for k := range a.Ranking {
		a.Ranking[k] = k
		a.PeakSamples[k] = lo
	}
	if c.count >= 2 && lo < hi {
		c.rank(a.Peaks, a.PeakSamples, lo, hi, signed, each)
	}
	key := func(r float64) float64 {
		if signed {
			return r
		}
		return math.Abs(r)
	}
	for i := 1; i < len(a.Ranking); i++ {
		for j := i; j > 0; j-- {
			x, y := a.Ranking[j-1], a.Ranking[j]
			if key(a.Peaks[y]) > key(a.Peaks[x]) {
				a.Ranking[j-1], a.Ranking[j] = y, x
			} else {
				break
			}
		}
	}
	return a
}

// rank finds every hypothesis's peak over [lo,hi) (count >= 2, lo <
// hi) in one fused pass. The window is cut into rankTile-sample tiles;
// each tile packs the non-empty classes' sums contiguously, and every
// hypothesis quad's correlation tile is computed from it by classTile —
// so the packed tile stays cache-resident across all quads — and folded
// into the quad's running peaks at once. Tiles run in ascending sample
// order, so each peak sees its samples in the order PeakIn does. With
// each set, runs of quads go to separate calls (ResultInEach), each
// packing its own tiles and writing only its own hypotheses' peaks.
func (c *ClassCPA) rank(peaks []float64, at []int, lo, hi int, signed bool, each func(n int, f func(i int))) {
	// Per non-empty class: its table offset and its class-sum offset.
	offs := make([]int, 0, c.classes)
	rows := make([]int, 0, c.classes)
	for p, np := range c.classN {
		if np != 0 {
			offs = append(offs, p*c.nHyp)
			rows = append(rows, p*c.samples)
		}
	}
	sumH, rootH := make([]float64, c.nHyp), make([]float64, c.nHyp)
	for k := range sumH {
		sumH[k], rootH[k] = c.hypTerms(k)
	}
	// The window's Σt and √t, zero-padded to whole tiles.
	padded := (hi - lo + rankTile - 1) / rankTile * rankTile
	sumT := make([]float64, padded)
	rootT := make([]float64, padded)
	copy(sumT, c.sumT[lo:hi])
	for i := range hi - lo {
		rootT[i] = c.rootT(lo + i)
	}

	// quads runs the hypothesis quads [q0,q1) over the whole window.
	quads := func(q0, q1 int) {
		t := &tileTerms{n: float64(c.count), sumH: sumH, rootH: rootH}
		tile := make([]float64, len(rows)*rankTile)
		var out [4 * rankTile]float64
		for b := lo; b < hi; b += rankTile {
			w := min(rankTile, hi-b)
			for i, r := range rows {
				copy(tile[i*rankTile:i*rankTile+w], c.classSum[r+b:r+b+w])
			}
			t.sumT, t.rootT = sumT[b-lo:b-lo+rankTile], rootT[b-lo:b-lo+rankTile]
			for k0 := 4 * q0; k0 < min(4*q1, c.nHyp); k0 += 4 {
				m := min(4, c.nHyp-k0)
				classTile(out[:], tile, c.table, offs, k0, m, w, t)
				for j := 0; j < m; j++ {
					k := k0 + j
					rs := out[j*rankTile : j*rankTile+w]
					if b == lo {
						peaks[k] = rs[0] // the window's first sample seeds the peak
					}
					peaks[k], at[k] = scanPeak(rs, b, peaks[k], at[k], signed)
				}
			}
		}
	}
	nq := (c.nHyp + 3) / 4
	if parts := min(nq, maxParts); each == nil || parts < 2 {
		quads(0, nq)
	} else {
		each(parts, func(i int) { quads(i*nq/parts, (i+1)*nq/parts) })
	}
}

// scanPeak folds the correlations rs at samples b, b+1, … into the
// running peak (best, idx): a sample replaces the peak only by
// outranking it, so ties keep the earlier sample.
func scanPeak(rs []float64, b int, best float64, idx int, signed bool) (float64, int) {
	if signed {
		for i, r := range rs {
			if r > best {
				best, idx = r, b+i
			}
		}
		return best, idx
	}
	key := math.Abs(best)
	for i, r := range rs {
		if a := math.Abs(r); a > key {
			best, idx, key = r, b+i, a
		}
	}
	return best, idx
}

// tileTerms are what a correlation tile closes with: the trace count,
// Σh and √h per hypothesis, and Σt and √t for each of the tile's
// rankTile samples.
type tileTerms struct {
	n           float64
	sumH, rootH []float64
	sumT, rootT []float64
}

// classTileGeneric is the ranking kernel's Go twin. For j < m and s <
// w it forms hypothesis k = k0+j's Σh·t at tile sample s as one serial
// multiply-then-add chain from +0 over the classes in order —
// Σ_i table[offs[i]+k]·tile[i*rankTile+s] — and writes its correlation
// pearson(n, Σh·t, Σh[k], Σt[s], √h[k], √t[s]) to out[j*rankTile+s].
func classTileGeneric(out, tile, table []float64, offs []int, k0, m, w int, t *tileTerms) {
	for j := 0; j < m; j++ {
		k := k0 + j
		row := out[j*rankTile : j*rankTile+w]
		clear(row)
		for i, o := range offs {
			axpyGeneric(row, tile[i*rankTile:i*rankTile+w], table[o+k])
		}
		for s, ht := range row {
			row[s] = pearson(t.n, ht, t.sumH[k], t.sumT[s], t.rootH[k], t.rootT[s])
		}
	}
}

// Result computes the attack summary, exactly as CPA.Result does over
// the class sums: ResultIn over the whole trace, ranked by magnitude.
func (c *ClassCPA) Result() *Attack { return c.ResultIn(0, c.samples, false) }

// Equal reports bit-identical accumulator state — the strict
// equivalence the engine's determinism tests assert.
func (c *ClassCPA) Equal(o *ClassCPA) bool {
	if c.classes != o.classes || c.nHyp != o.nHyp || c.samples != o.samples || c.count != o.count {
		return false
	}
	for p := range c.classN {
		if c.classN[p] != o.classN[p] {
			return false
		}
	}
	eq := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	return eq(c.table, o.table) && eq(c.classSum, o.classSum) &&
		eq(c.sumT, o.sumT) && eq(c.sumTT, o.sumTT)
}

// Clone returns an independent deep copy of the accumulator state. The
// hypothesis table — immutable after construction — is shared, not
// copied.
func (c *ClassCPA) Clone() *ClassCPA {
	o := &ClassCPA{
		classes:  c.classes,
		nHyp:     c.nHyp,
		samples:  c.samples,
		count:    c.count,
		table:    c.table,
		classN:   append([]int64(nil), c.classN...),
		classSum: append([]float64(nil), c.classSum...),
		sumT:     append([]float64(nil), c.sumT...),
		sumTT:    append([]float64(nil), c.sumTT...),
	}
	return o
}

// Reset clears the accumulated state, keeping the table.
func (c *ClassCPA) Reset() {
	clear(c.classN)
	clear(c.classSum)
	clear(c.sumT)
	clear(c.sumTT)
	c.count = 0
}
