// Package leakscan implements the side-channel characterization of the
// paper's §4: seven instruction micro-benchmarks run with randomly drawn
// operands, acquired through the simulated measurement chain, and tested
// against per-component Hamming-weight/distance power models with the
// paper's statistical criterion — a leak is declared when the model's
// correlation is distinguishable from zero, in the correct clock cycle,
// with confidence above 99.5% (Table 2).
package leakscan

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/sca"
)

// Verdict classifies one (component, expression) cell of Table 2.
type Verdict uint8

// Verdicts. Border marks the † entries: leakage caused by the
// pipeline-flushing nops around the benchmark, not by the benchmarked
// instructions themselves.
const (
	None Verdict = iota
	Leak
	Border
)

// String renders the verdict in Table 2's vocabulary.
func (v Verdict) String() string {
	switch v {
	case None:
		return "no leak"
	case Leak:
		return "LEAK"
	case Border:
		return "LEAK (border †)"
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// Leaks reports whether the verdict declares any leakage.
func (v Verdict) Leaks() bool { return v != None }

// Column names one Table 2 component column.
type Column string

// Table 2 columns.
const (
	ColRF    Column = "Register File"
	ColISEX  Column = "Is/Ex Buffer"
	ColShift Column = "Shift Buffer"
	ColALU   Column = "ALU Buffer"
	ColEXWB  Column = "Ex/Wb Buffer"
	ColMDR   Column = "MDR"
	ColAlign Column = "Align Buffer"
)

// Values carries one run's randomly drawn operand values and the derived
// intermediates, keyed by the paper's register letters ("rA", "rB", ...).
type Values map[string]uint32

// HW returns the Hamming weight of a named value.
func (v Values) HW(name string) float64 { return float64(sca.HW(v[name])) }

// HD returns the Hamming distance between two named values.
func (v Values) HD(a, b string) float64 { return float64(sca.HD(v[a], v[b])) }

// Expr is one power-model expression of Table 2, evaluated per run and
// correlated against the trace inside its component's clock-cycle window.
type Expr struct {
	Column Column
	Name   string
	// Expected is the ground-truth verdict.
	Expected Verdict
	// Scored marks expressions whose red/black status is unambiguous in
	// the paper (prose-backed); only these count toward the Table 2
	// agreement figure. Unscored expressions document model-specific
	// predictions (the dump of Table 2 loses cell colors).
	Scored bool
	// Anchor is the index of the anchoring instruction inside the
	// benchmark sequence; len(seq) anchors at the first trailing nop
	// (for † border expressions).
	Anchor int
	// OffLo and OffHi bound the window in cycles relative to the
	// anchor's issue cycle.
	OffLo, OffHi int
	// Eval computes the predicted leakage from the run's values.
	Eval func(Values) float64
}

// Benchmark is one Table 2 row: an instruction sequence, its operand
// randomization, and the model expressions to test.
type Benchmark struct {
	// Name identifies the row.
	Name string
	// Row is the 1-based Table 2 row number.
	Row int
	// Seq is the benchmark's assembly (concrete registers).
	Seq string
	// SeqLen is the number of instructions in Seq.
	SeqLen int
	// DualExpected records Table 2's "Dual Issued" column.
	DualExpected bool
	// Setup draws random operands, configures the fresh core (registers,
	// destination pre-charge, memory contents) and returns the values.
	Setup func(rng *rand.Rand, core *pipeline.Core) Values
	// Exprs are the model expressions to test.
	Exprs []Expr
}

// padNops is the pipeline-flushing padding around the measured sequence
// (the paper uses 100 on hardware; the simulated pipeline state is fully
// flushed well within 12).
const padNops = 12

// program assembles padding + sequence + padding and returns the static
// instruction index of the first sequence instruction.
func (b *Benchmark) program() (*isa.Program, int, error) {
	var sb strings.Builder
	for i := 0; i < padNops; i++ {
		sb.WriteString("nop\n")
	}
	sb.WriteString(b.Seq)
	sb.WriteByte('\n')
	for i := 0; i < padNops; i++ {
		sb.WriteString("nop\n")
	}
	p, err := isa.Assemble(sb.String())
	if err != nil {
		return nil, 0, err
	}
	if p.Len() != b.SeqLen+2*padNops {
		return nil, 0, fmt.Errorf("leakscan: %s: sequence length %d, declared %d",
			b.Name, p.Len()-2*padNops, b.SeqLen)
	}
	return p, padNops, nil
}

// Options configures a leakage scan.
type Options struct {
	// Traces is the number of random-input acquisitions (the paper uses
	// 100k on hardware; the simulator's SNR needs far fewer).
	Traces int
	// Averages is the per-acquisition averaging factor (paper: 16).
	Averages int
	// Confidence is the detection criterion (paper: 0.995). The
	// per-sample threshold is Bonferroni-corrected by the window width.
	Confidence float64
	// Seed drives operand randomization and measurement noise; each
	// acquisition draws from a private stream derived from (Seed, index),
	// so scans are reproducible for any worker count.
	Seed int64
	// Model is the power model; Core the micro-architecture.
	Model power.Model
	Core  pipeline.Config
	// Order selects the CPA combining order: 0 or 1 scans first-order
	// correlations; 2 runs a second pass accumulating centered products
	// over each expression window's sample pairs (an engine.Order2 bank
	// over the windows), with the centering means taken from the first
	// pass.
	// Order-2 cells are unscored: the paper's Table 2 verdicts are
	// first-order ground truth.
	Order int
	// Synth selects the trace-synthesis strategy (engine.ModeAuto by
	// default: compiled replay of each benchmark's schedule, checked
	// against full simulation on the first engine.VerifyRuns traces).
	Synth engine.Mode
	// Config is the run's scheduling; results are bit-identical for
	// every value.
	engine.Config
}

// DefaultOptions returns the paper's §4 methodology scaled to the
// simulator: 40000 traces of 16 averaged executions, 99.5% confidence.
// The trace count is dictated by the weakest effect under test — the
// shifter buffer's correlation sits at roughly one tenth of the other
// leakages (§4.1, r ~ 0.03 here), just as on the paper's hardware,
// where 100k traces were needed; 40k keeps it past the
// Bonferroni-corrected threshold with margin for any seed.
func DefaultOptions() Options {
	return Options{
		Traces:     40000,
		Averages:   16,
		Confidence: 0.995,
		Seed:       1,
		Model:      power.DefaultModel(),
		Core:       pipeline.DefaultConfig(),
	}
}

// ExprResult is the measured outcome for one expression.
type ExprResult struct {
	Expr
	// Peak is the peak correlation inside the window; PeakSample its
	// sample index. For order-2 scans PeakSample and PeakSample2 are the
	// raw indices of the winning centered-product pair.
	Peak        float64
	PeakSample  int
	PeakSample2 int
	// Confidence is the Fisher-z confidence of the peak.
	Confidence float64
	// Detected is the measured verdict after the Bonferroni-corrected
	// threshold.
	Detected bool
	// Match reports Detected == Expected.Leaks().
	Match bool
}

// BenchResult is the measured outcome of one Table 2 row.
type BenchResult struct {
	Name         string
	Row          int
	Dual         bool
	DualExpected bool
	Traces       int
	// Order is the CPA combining order of the scan (1 or 2).
	Order int
	Exprs []ExprResult
}

// Agreement counts scored expressions matching the paper, including the
// dual-issue column.
func (r *BenchResult) Agreement() (match, total int) {
	total++ // the Dual Issued column
	if r.Dual == r.DualExpected {
		match++
	}
	for _, e := range r.Exprs {
		if !e.Scored {
			continue
		}
		total++
		if e.Match {
			match++
		}
	}
	return match, total
}

// RunBenchmark measures one Table 2 row.
func RunBenchmark(b *Benchmark, opt Options) (*BenchResult, error) {
	if opt.Traces < 8 {
		return nil, fmt.Errorf("leakscan: need at least 8 traces, got %d", opt.Traces)
	}
	if opt.Order < 0 || opt.Order > 2 {
		return nil, fmt.Errorf("leakscan: CPA order %d not supported (want 1 or 2)", opt.Order)
	}
	if err := opt.Model.Validate(); err != nil {
		return nil, err
	}
	prog, seqStart, err := b.program()
	if err != nil {
		return nil, err
	}

	// Calibration run: issue cycles are input-independent, so one run
	// fixes every expression's window and the dual-issue verdict.
	calCore, err := pipeline.New(opt.Core, nil)
	if err != nil {
		return nil, err
	}
	b.Setup(rand.New(rand.NewSource(opt.Seed^0x5ca1ab1e)), calCore)
	calRes, err := calCore.Run(prog)
	if err != nil {
		return nil, err
	}
	issueCycle := make(map[int]int64) // static PC -> issue cycle
	dualSeen := false
	for _, is := range calRes.Issues {
		if _, ok := issueCycle[is.PC]; !ok {
			issueCycle[is.PC] = is.Cycle
		}
		if is.PC >= seqStart && is.PC < seqStart+b.SeqLen && is.Dual {
			dualSeen = true
		}
	}
	spc := opt.Model.SamplesPerCycle
	nSamples := len(calRes.Timeline) * spc

	windows := make([]sca.Window, len(b.Exprs))
	for i, e := range b.Exprs {
		pc := seqStart + e.Anchor
		base, ok := issueCycle[pc]
		if !ok {
			return nil, fmt.Errorf("leakscan: %s: expression %q anchors at unexecuted pc %d", b.Name, e.Name, pc)
		}
		lo := (int(base) + e.OffLo) * spc
		hi := (int(base) + e.OffHi + 1) * spc
		if lo < 0 {
			lo = 0
		}
		if hi > nSamples {
			hi = nSamples
		}
		if lo >= hi {
			return nil, fmt.Errorf("leakscan: %s: empty window for %q", b.Name, e.Name)
		}
		windows[i] = sca.Window{Lo: lo, Hi: hi}
	}

	synth, err := engine.NewSynthesizer(opt.Synth, opt.Core, prog)
	if err != nil {
		return nil, err
	}
	run := func(bank engine.Bank) (sca.Accumulator, error) {
		banks, err := engine.RunBatched(
			opt.Config,
			engine.Spec{Traces: opt.Traces, Samples: nSamples, Banks: []engine.Bank{bank}, Seed: opt.Seed},
			engine.BatchGen{
				Variants: []*engine.Synthesizer{synth},
				Model:    &opt.Model,
				Averages: max(opt.Averages, 1),
				Prepare: func(n int, rng *rand.Rand, core *pipeline.Core, s *engine.Sample) error {
					vals := b.Setup(rng, core)
					for i, e := range b.Exprs {
						s.Hyps[0][i] = e.Eval(vals)
					}
					return nil
				},
			})
		if err != nil {
			return nil, err
		}
		return banks[0], nil
	}
	cpa, err := run(engine.Bank{Hyps: len(b.Exprs)})
	if err != nil {
		return nil, err
	}

	order := opt.Order
	if order == 0 {
		order = 1
	}
	out := &BenchResult{Name: b.Name, Row: b.Row, Dual: dualSeen, DualExpected: b.DualExpected,
		Traces: opt.Traces, Order: order}
	// The peak search of expression i spans segs[i] of the bank's
	// samples: its raw window, or for order 2 its window's pairs.
	segs := windows
	if order == 2 {
		// Second pass over identical per-trace streams, combining each
		// expression window's sample pairs in the window order: the first
		// pass's mean trace centers the products, so the combined trace
		// of index i is a pure function of trace i alone.
		o2 := &engine.Order2{Means: cpa.(*sca.CPA).MeanTrace(), Windows: windows}
		if cpa, err = run(engine.Bank{Hyps: len(b.Exprs), Order2: o2}); err != nil {
			return nil, err
		}
		segs = make([]sca.Window, len(windows))
		off := 0
		for i, w := range windows {
			segs[i] = sca.Window{Lo: off, Hi: off + w.Pairs()}
			off = segs[i].Hi
		}
	}
	for i, e := range b.Exprs {
		w := segs[i]
		best, bestS := 0.0, w.Lo
		for s := w.Lo; s < w.Hi; s++ {
			r := cpa.Corr(i, s)
			if abs(r) > abs(best) {
				best, bestS = r, s
			}
		}
		conf := sca.CorrConfidence(best, opt.Traces)
		// Bonferroni correction over the window width.
		thr := 1 - (1-opt.Confidence)/float64(w.Hi-w.Lo)
		det := conf > thr
		er := ExprResult{
			Expr: e, Peak: best, PeakSample: bestS,
			Confidence: conf, Detected: det,
			Match: det == e.Expected.Leaks(),
		}
		if order == 2 {
			er.PeakSample, er.PeakSample2 = sca.Order2Pair(windows, bestS)
			// Order-2 verdicts have no Table 2 ground truth.
			er.Scored = false
		}
		out.Exprs = append(out.Exprs, er)
	}
	return out, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// RunAll measures every Table 2 row.
func RunAll(opt Options) ([]*BenchResult, error) {
	var out []*BenchResult
	for _, b := range Benchmarks() {
		b := b
		r, err := RunBenchmark(&b, opt)
		if err != nil {
			return nil, fmt.Errorf("leakscan: %s: %w", b.Name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Agreement aggregates scored agreement over all rows.
func Agreement(rs []*BenchResult) (match, total int) {
	for _, r := range rs {
		m, t := r.Agreement()
		match += m
		total += t
	}
	return match, total
}

// Report renders the scan in the shape of Table 2.
func Report(rs []*BenchResult) string {
	var sb strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&sb, "Row %d: %s (dual issued: %v, expected %v, %d traces)\n",
			r.Row, r.Name, r.Dual, r.DualExpected, r.Traces)
		for _, e := range r.Exprs {
			// OK/DIFF is a verdict against Table 2's first-order ground
			// truth, so it only applies to scored cells; unscored cells
			// (order-2 scans, border effects) report the measurement alone.
			status, scored := "--  ", " "
			if e.Scored {
				status, scored = "OK  ", "*"
				if !e.Match {
					status = "DIFF"
				}
			}
			fmt.Fprintf(&sb, "  %s%s %-14s %-14s r=%+.3f conf=%.4f detected=%-5v expected=%s\n",
				status, scored, e.Column, e.Name, e.Peak, e.Confidence, e.Detected, e.Expected)
		}
	}
	m, t := Agreement(rs)
	fmt.Fprintf(&sb, "scored agreement with Table 2: %d/%d\n", m, t)
	return sb.String()
}
