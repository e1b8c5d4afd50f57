package sca

import (
	"fmt"
	"math"
)

// Accumulator is the read side shared by the streaming correlation
// engines: everything an attack evaluates after (or while) traces
// accumulate. CPA implements it by maintaining the Pearson sums
// directly; ClassCPA by deriving them from per-class trace sums.
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
// depends on workers, chunking or lane width. Derivation sweeps classes
// in ascending index, skipping empty classes (their contribution is a
// ±0 that cannot change any accumulated bit), so every statistic is a
// pure function of the state. Add the same traces in the same order and
// every derived correlation is bit-identical.
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

	// derived caches the Pearson sums computed from the class state;
	// accumulation invalidates it.
	derived *classDerived
}

// classDerived holds the Pearson sums derived from the class state.
type classDerived struct {
	sumH  []float64
	sumHH []float64
	sumHT []float64
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

// MeanTrace returns the per-sample mean trace Σt/n — the centering
// vector a second-order pass feeds to NewClassCPA2. It is a pure
// function of the accumulator state: sumT receives its per-trace adds
// in trace order, so two runs over the same trace sequence return
// bit-identical means.
func (c *ClassCPA) MeanTrace() []float64 {
	out := make([]float64, c.samples)
	if c.count == 0 {
		return out
	}
	n := float64(c.count)
	for s, v := range c.sumT {
		out[s] = v / n
	}
	return out
}

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
	c.derived = nil
	return nil
}

// AddBatch accumulates a batch of traces with their classes, bit-
// identically to calling Add(classes[i], traces[i]) in ascending i.
func (c *ClassCPA) AddBatch(classes []int, traces [][]float64) error {
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
	for i, t := range traces {
		p := classes[i]
		classAddInto(c.sumT, c.sumTT, c.classSum[p*c.samples:(p+1)*c.samples], t)
		c.classN[p]++
	}
	c.count += len(traces)
	c.derived = nil
	return nil
}

// derive materializes the Pearson sums from the class state: one sweep
// over the classes in ascending index, empty classes skipped (a
// skipped class would contribute 0·h and 0·S terms — ±0 values whose
// addition cannot alter any accumulated bit, since exact cancellation
// rounds to +0 and x+(±0) preserves x's bits for every non-zero x).
func (c *ClassCPA) derive() *classDerived {
	if c.derived != nil {
		return c.derived
	}
	d := &classDerived{
		sumH:  make([]float64, c.nHyp),
		sumHH: make([]float64, c.nHyp),
		sumHT: make([]float64, c.nHyp*c.samples),
	}
	for p := 0; p < c.classes; p++ {
		if c.classN[p] == 0 {
			continue
		}
		np := float64(c.classN[p])
		row := c.table[p*c.nHyp : (p+1)*c.nHyp]
		for k, h := range row {
			d.sumH[k] += np * h
			d.sumHH[k] += np * (h * h)
		}
	}
	// Σh·t rows, sample-tiled so a block of class sums stays cache-
	// resident while every hypothesis row streams through it once.
	const tile = 512
	for base := 0; base < c.samples; base += tile {
		w := c.samples - base
		if w > tile {
			w = tile
		}
		for k := 0; k < c.nHyp; k++ {
			row := d.sumHT[k*c.samples+base : k*c.samples+base+w]
			c.accumRow(row, base, w, k)
		}
	}
	c.derived = d
	return d
}

// accumRow adds Σ_p H[p][k]·S_p[base:base+w] into row, classes in
// ascending index, empty classes skipped.
func (c *ClassCPA) accumRow(row []float64, base, w, k int) {
	quad := [4][]float64{}
	coef := [4]float64{}
	n := 0
	flush := func() {
		switch n {
		case 4:
			axpy4(row, quad[0], quad[1], quad[2], quad[3], coef[0], coef[1], coef[2], coef[3])
		default:
			for i := 0; i < n; i++ {
				axpy(row, quad[i], coef[i])
			}
		}
		n = 0
	}
	for p := 0; p < c.classes; p++ {
		if c.classN[p] == 0 {
			continue
		}
		quad[n] = c.classSum[p*c.samples+base : p*c.samples+base+w]
		coef[n] = c.table[p*c.nHyp+k]
		n++
		if n == 4 {
			flush()
		}
	}
	flush()
}

// Corr returns the correlation of hypothesis k at sample s.
func (c *ClassCPA) Corr(k, s int) float64 {
	if c.count < 2 {
		return 0
	}
	d := c.derive()
	n := float64(c.count)
	num := n*d.sumHT[k*c.samples+s] - d.sumH[k]*c.sumT[s]
	dh := n*d.sumHH[k] - d.sumH[k]*d.sumH[k]
	dt := n*c.sumTT[s] - c.sumT[s]*c.sumT[s]
	den := math.Sqrt(dh) * math.Sqrt(dt)
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}

// CorrTrace returns the correlation-vs-time curve of hypothesis k.
func (c *ClassCPA) CorrTrace(k int) []float64 {
	out := make([]float64, c.samples)
	for s := range out {
		out[s] = c.Corr(k, s)
	}
	return out
}

// Peak returns the maximum absolute correlation of hypothesis k and the
// sample where it occurs: PeakIn over the whole trace.
func (c *ClassCPA) Peak(k int) (corr float64, sample int) {
	return c.PeakIn(k, 0, c.samples, false)
}

// PeakIn returns hypothesis k's peak correlation within the sample
// window [lo,hi). Out-of-range bounds clamp to the trace; when signed
// is set the peak is the maximum signed correlation rather than the
// maximum magnitude.
func (c *ClassCPA) PeakIn(k, lo, hi int, signed bool) (corr float64, sample int) {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo || hi > c.samples {
		hi = c.samples
	}
	best, idx, have := 0.0, lo, false
	for s := lo; s < hi; s++ {
		r := c.Corr(k, s)
		better := math.Abs(r) > math.Abs(best)
		if signed {
			better = r > best
		}
		if !have || better {
			best, idx, have = r, s, true
		}
	}
	return best, idx
}

// ResultIn computes the attack summary restricted to the sample window
// [lo,hi), ranking hypotheses by signed correlation when signed is set.
// Windowing confines the peak search to where the attacked operation
// actually executes, suppressing deterministic ghost peaks from other
// cipher operations; signed ranking resolves the exact complement
// ambiguity of XOR-Hamming-weight models, where hypothesis k^0xff
// predicts the precise negation of hypothesis k and |r| alone cannot
// separate the two. Result is the (whole-trace, magnitude) special
// case.
func (c *ClassCPA) ResultIn(lo, hi int, signed bool) *Attack {
	a := &Attack{
		Peaks:       make([]float64, c.nHyp),
		PeakSamples: make([]int, c.nHyp),
		Ranking:     make([]int, c.nHyp),
		Traces:      c.count,
	}
	for k := 0; k < c.nHyp; k++ {
		r, s := c.PeakIn(k, lo, hi, signed)
		a.Peaks[k] = r
		a.PeakSamples[k] = s
		a.Ranking[k] = k
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

// Result computes the attack summary, exactly as CPA.Result does over
// the derived sums: ResultIn over the whole trace, ranked by magnitude.
func (c *ClassCPA) Result() *Attack { return c.ResultIn(0, c.samples, false) }

// Equal reports bit-identical accumulator state — the strict
// equivalence the engine's determinism tests assert. Derived caches are
// not state.
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
	c.derived = nil
}
