// Package engine is the parallel trace-synthesis and streaming-CPA
// subsystem. It fans trace generation — pipeline simulation or compiled
// replay, power-model synthesis, hypothesis evaluation — out across a
// pool of workers in fixed-size chunks, while a single reducer folds
// each chunk's traces into the global correlation accumulators in
// strict chunk order, so the whole attack runs in bounded memory at
// full core utilization while producing bit-identical results for any
// worker count.
//
// Determinism contract. Every trace index i owns a private random stream
// derived from (Seed, i) by a SplitMix64 mix (TraceRNG), so the data a
// trace sees never depends on which worker synthesized it or when.
// Accumulation happens only on the reducer: each chunk's traces are
// folded into the global accumulators by one AddBatch call per bank, in
// ascending chunk order, and AddBatch is defined bit-identical to
// per-trace Add calls in trace order. The global floating-point
// summation order is therefore exactly the serial trace order 0,1,2,…
// — a pure function of (Seed, Traces), never of Workers, Lanes, chunk
// size or scheduling. Runs with one worker and with sixteen produce
// bit-identical accumulators, and so do runs with different chunk
// sizes. Second-order banks (Order2) keep that order too: the reducer
// keeps the raw traces in trace order and folds them, centered on
// their mean, after the last chunk.
package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/osnoise"
	"repro/internal/power"
	"repro/internal/sca"
	"repro/internal/trace"
)

// DefaultChunkSize is the number of traces a worker synthesizes between
// reductions. It is pure scheduling: the accumulator bits do not depend
// on it (see the package determinism contract). It also sizes the
// auto-mode replay verification window (VerifyRuns).
const DefaultChunkSize = 64

// Config is a run's scheduling: the knobs every campaign, attack and
// scan passes down to the engine unchanged. None of them changes a
// result bit (see the package determinism contract); they decide only
// how fast a result arrives, and whether it arrives at all.
type Config struct {
	// Workers is the pool size; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// Lanes is the lane-group width of RunBatched: 0 selects
	// DefaultLanes, otherwise 1..replay.MaxLanes (see CheckLanes).
	Lanes int
	// Ctx, when non-nil, cancels the run: workers observe it between
	// chunks, so a run aborts within one chunk's worth of synthesis and
	// RunBatched returns the context's error. Cancellation never corrupts
	// results — a canceled run returns no accumulators at all.
	Ctx context.Context
	// Gate, when non-nil, bounds chunk-synthesis concurrency across
	// every run sharing it (see Gate).
	Gate *Gate

	// chunkSize is the per-chunk trace count; <= 0 selects
	// DefaultChunkSize. Only the engine's tests vary it.
	chunkSize int
}

// ctxErr reports the configured context's cancellation state.
func (c Config) ctxErr() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Each runs f(i) for every i in [0, n) on up to Workers goroutines, the
// calling one among them, and returns once every call has returned. It
// spreads a run's one-core stages — the verification window's lanes,
// class-bank ranking, the order-2 fold, the Table 1 matrix — over the
// run's own workers. Each call must write only state that index i owns;
// any choice that depends on order belongs after Each returns, in index
// order, so no result bit depends on which goroutine ran which index.
//
// A goroutine beyond the caller's starts only if it can take a Gate slot
// that is free at that moment: Each never waits for a slot, so a shared
// gate cannot deadlock it and a loaded gate just runs it narrower. At
// width 1 it is the plain loop.
func (c Config) Each(n int, f func(i int)) {
	width := min(c.workers(), n)
	if width <= 1 {
		for i := range n {
			f(i)
		}
		return
	}
	var next atomic.Int64
	loop := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			f(i)
		}
	}
	var wg sync.WaitGroup
	for range width - 1 {
		if !c.Gate.tryAcquire() {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.Gate.release()
			loop()
		}()
	}
	loop()
	wg.Wait()
}

// Bank describes one accumulator bank of a streaming run.
type Bank struct {
	// Hyps is the bank's hypothesis count (e.g. 256 for one key byte).
	Hyps int
	// Classes, when non-nil, switches the bank to conditional-sum
	// accumulation (sca.ClassCPA): Classes[p] is the hypothesis
	// prediction vector shared by every trace whose model input falls
	// in class p — for the Figure 3 model, p is the attacked plaintext
	// byte and Classes[p][k] = HW(SubBytes(p^k)). The trace's synthesis
	// then reports its class through Sample.Class[bank] instead of filling
	// Sample.Hyps[bank]. All rows must have length Hyps.
	Classes [][]float64
	// Order2, when non-nil, switches the bank to second-order
	// accumulation: the bank is fed the products of each trace's window
	// sample pairs, centered on the run's own mean trace
	// (sca.Order2Combine), and its samples index that combined layout
	// (sca.Order2Pair maps them back). It is folded once the last chunk
	// is in, from raw traces the reducer keeps (see maxOrder2Bytes).
	Order2 *Order2
}

// Order2 configures a bank's second-order combining.
type Order2 struct {
	// Windows are the combining windows over raw sample indices, laid
	// out in order in the combined trace; none selects the full trace.
	Windows []sca.Window
}

// maxOrder2Bytes bounds the raw traces a run with second-order banks
// keeps on the reducer, 8 bytes a sample (beside them each such bank
// keeps its Hyps predictions or one class per trace). A masked-gadget
// campaign scenario keeps about 4 MB, leakscan's 40k-trace scan 38 MB.
const maxOrder2Bytes = 256 << 20

// windows returns o's combining windows over traces of samples points.
func (o *Order2) windows(samples int) []sca.Window {
	if len(o.Windows) == 0 {
		return []sca.Window{{Lo: 0, Hi: samples}}
	}
	return o.Windows
}

// HypothesisBanks builds classic per-trace-hypothesis bank specs, one
// per count — the shape of attacks whose predictions are not a function
// of a small model input.
func HypothesisBanks(hyps ...int) []Bank {
	out := make([]Bank, len(hyps))
	for i, n := range hyps {
		out[i] = Bank{Hyps: n}
	}
	return out
}

// Sample is one synthesized acquisition handed from a trace's synthesis
// (BatchGen.Prepare and the fused expansion) to the accumulators: the
// power trace plus, per bank, either the per-hypothesis leakage
// predictions or the trace's model-input class. The engine owns the
// Hyps buffers (sized from Spec.Banks) and the fused expansion fills
// Trace; Prepare fills Hyps or, for class banks, Class.
type Sample struct {
	// Trace is the synthesized power trace; its length must equal
	// Spec.Samples. The engine hands it back truncated to length zero
	// with its previous capacity intact, so the expansion writes
	// allocation-free into the recycled storage.
	Trace []float64
	// Hyps holds one prediction vector per classic bank: Hyps[b][k] is
	// the hypothesized leakage of hypothesis k in bank b. Class banks
	// have a nil row.
	Hyps [][]float64
	// Class holds, per class bank, the trace's model-input class in
	// [0, len(Banks[b].Classes)); ignored for classic banks.
	Class []int
	// Aux is caller-owned per-trace storage preserved across recycling
	// (capacity intact, like Trace) — the batched generators use it to
	// carry the plaintext from the prepare phase to the verify phase,
	// and Spec.Emit receives it beside the trace.
	Aux []byte
}

// Emit receives trace i in strict index order on the reducer, with its
// aux record (Sample.Aux); it typically appends to a file or feeds a
// statistic. Both slices are recycled once it returns, so it must copy
// what it keeps. Returning an error aborts the run.
type Emit func(i int, t trace.Trace, aux []byte) error

// Spec describes one streaming run: the accumulator banks the reducer
// folds every trace into, and the per-trace sink it emits them to.
type Spec struct {
	// Traces is the total number of acquisitions to synthesize.
	Traces int
	// Samples is the trace length, fixed by a calibration run.
	Samples int
	// Banks describes the accumulator banks. A single-byte CPA uses one
	// bank of 256 hypotheses; full-key recovery uses sixteen banks
	// sharing each trace. It may be empty when Emit is set.
	Banks []Bank
	// Seed derives every trace's private random stream via TraceRNG.
	Seed int64
	// Checkpoints lists trace counts at which OnCheckpoint observes the
	// merged accumulators (ascending, each in [1, Traces]). Chunks are
	// split at checkpoints, so the observation covers exactly the first
	// n traces. A spec with a second-order bank takes none: that bank
	// is still empty until the last chunk is in.
	Checkpoints []int
	// OnCheckpoint, if set, is called from the reducer — in ascending
	// checkpoint order — with the global accumulators after exactly n
	// traces. The banks must be treated as read-only and not retained.
	OnCheckpoint func(n int, banks []sca.Accumulator)
	// Emit, if set, is called from the reducer for every trace in
	// strict trace order, after the trace's chunk was folded into the
	// banks — the trace-set producers' (file writers, t-tests) sink.
	Emit Emit
}

func (s *Spec) validate() error {
	if s.Traces < 1 {
		return fmt.Errorf("engine: need at least 1 trace, got %d", s.Traces)
	}
	if s.Samples < 1 {
		return fmt.Errorf("engine: need at least 1 sample, got %d", s.Samples)
	}
	if len(s.Banks) == 0 && s.Emit == nil {
		return fmt.Errorf("engine: need at least one accumulator bank or an Emit sink")
	}
	for b, bank := range s.Banks {
		if bank.Hyps < 2 {
			return fmt.Errorf("engine: bank %d needs at least 2 hypotheses, got %d", b, bank.Hyps)
		}
		if bank.Classes != nil {
			if len(bank.Classes) < 1 {
				return fmt.Errorf("engine: bank %d has an empty class table", b)
			}
			for p, row := range bank.Classes {
				if len(row) != bank.Hyps {
					return fmt.Errorf("engine: bank %d class %d has %d hypotheses, want %d",
						b, p, len(row), bank.Hyps)
				}
			}
		}
		if o := bank.Order2; o != nil {
			for _, w := range o.Windows {
				if w.Lo < 0 || w.Hi > s.Samples || w.Lo >= w.Hi {
					return fmt.Errorf("engine: bank %d combining window [%d,%d) out of [0,%d)",
						b, w.Lo, w.Hi, s.Samples)
				}
			}
		}
	}
	if s.order2() {
		if len(s.Checkpoints) > 0 {
			return fmt.Errorf("engine: second-order banks fold after the last trace and take no checkpoints")
		}
		if s.Traces > maxOrder2Bytes/(8*s.Samples) {
			return fmt.Errorf("engine: second-order run keeps %d traces × %d samples (%.1f MiB), over the %d MiB bound",
				s.Traces, s.Samples, float64(s.Traces)*float64(s.Samples)*8/(1<<20), maxOrder2Bytes>>20)
		}
	}
	for i, n := range s.Checkpoints {
		if n < 1 || n > s.Traces {
			return fmt.Errorf("engine: checkpoint %d out of [1,%d]", n, s.Traces)
		}
		if i > 0 && n <= s.Checkpoints[i-1] {
			return fmt.Errorf("engine: checkpoints must be strictly ascending")
		}
	}
	return nil
}

// order2 reports whether s has a second-order bank.
func (s *Spec) order2() bool {
	return slices.ContainsFunc(s.Banks, func(b Bank) bool { return b.Order2 != nil })
}

// chunk is a half-open trace-index range.
type chunk struct{ start, end int }

// chunks cuts [0, traces) at every multiple of size and at every
// checkpoint, so reduced prefixes land exactly on checkpoint boundaries.
func chunks(traces, size int, checkpoints []int) []chunk {
	cuts := map[int]bool{}
	for b := size; b < traces; b += size {
		cuts[b] = true
	}
	for _, n := range checkpoints {
		if n < traces {
			cuts[n] = true
		}
	}
	bounds := make([]int, 0, len(cuts)+2)
	bounds = append(bounds, 0)
	for b := range cuts {
		bounds = append(bounds, b)
	}
	bounds = append(bounds, traces)
	sort.Ints(bounds)
	out := make([]chunk, 0, len(bounds)-1)
	for i := 1; i < len(bounds); i++ {
		out = append(out, chunk{bounds[i-1], bounds[i]})
	}
	return out
}

// newBanks allocates one accumulator per bank spec; a second-order
// bank spans its combined layout.
func newBanks(banks []Bank, samples int) ([]sca.Accumulator, error) {
	out := make([]sca.Accumulator, len(banks))
	for b, bank := range banks {
		n := samples
		if bank.Order2 != nil {
			n = sca.Order2Len(bank.Order2.windows(samples))
		}
		var err error
		if bank.Classes != nil {
			out[b], err = sca.NewClassCPA(n, bank.Classes)
		} else {
			out[b], err = sca.NewCPA(bank.Hyps, n)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// addBatch folds traces into one bank: trace j's prediction vector is
// hyps[lo+j] for a classic bank, its class classes[lo+j] for a class
// bank.
func addBatch(acc sca.Accumulator, traces, hyps [][]float64, classes []int, lo int) error {
	hi := lo + len(traces)
	switch a := acc.(type) {
	case *sca.CPA:
		return a.AddBatch(traces, hyps[lo:hi])
	case *sca.ClassCPA:
		return a.AddBatch(classes[lo:hi], traces)
	}
	return nil
}

// order2Kept is what the reducer keeps of a run for its second-order
// banks, in trace order: the raw traces and, per bank, the prediction
// vectors (classic banks) or classes (class banks).
type order2Kept struct {
	traces  []float64   // Samples per trace
	hyps    [][]float64 // [bank], Hyps per trace
	classes [][]int     // [bank]
}

// fold feeds every second-order bank the kept traces' pair products
// centered on their mean trace (sca.Order2Combine), size traces per
// AddBatch. The mean is summed from zero in trace order, then divided by
// the trace count: the bits of Σt/n in a first-order bank over the same
// traces, whose AddBatch adds each trace into Σt in trace order.
//
// Both halves of a batch spread over cfg's workers (Config.Each): the
// combine trace by trace, each into its own row, and a class bank's add
// by ranges of combined columns (sca.ClassCPA.AddBatchEach), in which
// every element keeps its trace-order chain. A classic bank's add stays
// on the reducer: its indexed kernel stages every column of a block in
// one scratch.
func (k *order2Kept) fold(cfg Config, spec *Spec, global []sca.Accumulator, size int) error {
	n, samples := spec.Traces, spec.Samples
	means := make([]float64, samples)
	for i, v := range k.traces {
		means[i%samples] += v
	}
	for s := range means {
		means[s] /= float64(n)
	}
	traces := rowsOf(k.traces, samples)
	for b, bank := range spec.Banks {
		if bank.Order2 == nil {
			continue
		}
		windows := bank.Order2.windows(samples)
		width := sca.Order2Len(windows)
		combined := rowsOf(make([]float64, min(size, n)*width), width)
		hyps := rowsOf(k.hyps[b], bank.Hyps)
		for lo := 0; lo < n; lo += size {
			batch := combined[:min(size, n-lo)]
			cfg.Each(len(batch), func(j int) {
				sca.Order2Combine(batch[j], traces[lo+j], means, windows)
			})
			var err error
			if cc, ok := global[b].(*sca.ClassCPA); ok {
				err = cc.AddBatchEach(k.classes[b][lo:lo+len(batch)], batch, cfg.Each)
			} else {
				err = addBatch(global[b], batch, hyps, k.classes[b], lo)
			}
			if err != nil {
				return fmt.Errorf("engine: bank %d: %w", b, err)
			}
		}
	}
	return nil
}

// rowsOf cuts flat into rows of width w.
func rowsOf(flat []float64, w int) [][]float64 {
	rows := make([][]float64, len(flat)/w)
	for i := range rows {
		rows[i] = flat[i*w : (i+1)*w]
	}
	return rows
}

// runChunked is the shared scheduler body: fill synthesizes the traces
// of one chunk into a batch buffer on a worker; the reducer accumulates
// finished buffers in chunk order — keeping what second-order banks
// fold after the last chunk — emits their traces (Spec.Emit) and
// recycles them. serial, when non-nil, reports whether the chunk
// starting at the given trace index must run alone (windowSerial).
func runChunked(cfg Config, spec Spec, serial func(start int) bool, fill func(c chunk, bb *batchBuf) error) ([]sca.Accumulator, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	global, err := newBanks(spec.Banks, spec.Samples)
	if err != nil {
		return nil, err
	}
	size := DefaultChunkSize
	if cfg.chunkSize > 0 {
		size = cfg.chunkSize
	}
	cs := chunks(spec.Traces, size, spec.Checkpoints)

	chunkCap := size
	for _, c := range cs {
		if n := c.end - c.start; n > chunkCap {
			chunkCap = n
		}
	}
	batches := sync.Pool{New: func() any {
		poolRefills.batch.Add(1)
		bb := &batchBuf{
			samples: make([]Sample, chunkCap),
			traces:  make([][]float64, chunkCap),
			hyps:    make([][][]float64, len(spec.Banks)),
			classes: make([][]int, len(spec.Banks)),
			rngs:    make([]*rand.Rand, chunkCap),
			srcs:    make([]*splitMixSource, chunkCap),
		}
		for j := range bb.samples {
			s := &bb.samples[j]
			s.Hyps = make([][]float64, len(spec.Banks))
			s.Class = make([]int, len(spec.Banks))
			for b, bank := range spec.Banks {
				if bank.Classes == nil {
					s.Hyps[b] = make([]float64, bank.Hyps)
				}
			}
			bb.srcs[j] = &splitMixSource{}
			bb.rngs[j] = rand.New(bb.srcs[j])
		}
		for b, bank := range spec.Banks {
			if bank.Classes == nil {
				bb.hyps[b] = make([][]float64, chunkCap)
			} else {
				bb.classes[b] = make([]int, chunkCap)
			}
		}
		return bb
	}}

	work := func(idx int) (*batchBuf, error) {
		if err := cfg.ctxErr(); err != nil {
			return nil, err
		}
		if err := cfg.Gate.acquire(cfg.Ctx); err != nil {
			return nil, err
		}
		defer cfg.Gate.release()
		bb := batches.Get().(*batchBuf)
		if err := fill(cs[idx], bb); err != nil {
			batches.Put(bb)
			return nil, err
		}
		return bb, nil
	}

	var kept order2Kept
	if spec.order2() {
		kept = order2Kept{
			traces:  make([]float64, 0, spec.Traces*spec.Samples),
			hyps:    make([][]float64, len(spec.Banks)),
			classes: make([][]int, len(spec.Banks)),
		}
	}
	ckpt := 0
	reduce := func(idx int, bb *batchBuf) error {
		defer batches.Put(bb)
		n := cs[idx].end - cs[idx].start
		for b, bank := range spec.Banks {
			switch {
			case bank.Order2 == nil:
				if err := addBatch(global[b], bb.traces[:n], bb.hyps[b], bb.classes[b], 0); err != nil {
					return fmt.Errorf("engine: chunk %d: %w", idx, err)
				}
			case bank.Classes != nil:
				kept.classes[b] = append(kept.classes[b], bb.classes[b][:n]...)
			default:
				for _, h := range bb.hyps[b][:n] {
					kept.hyps[b] = append(kept.hyps[b], h...)
				}
			}
		}
		if kept.traces != nil {
			for _, t := range bb.traces[:n] {
				kept.traces = append(kept.traces, t...)
			}
		}
		if spec.Emit != nil {
			for j := 0; j < n; j++ {
				if err := spec.Emit(cs[idx].start+j, bb.traces[j], bb.samples[j].Aux); err != nil {
					return err
				}
			}
		}
		merged := cs[idx].end
		if ckpt < len(spec.Checkpoints) && merged == spec.Checkpoints[ckpt] {
			if spec.OnCheckpoint != nil {
				spec.OnCheckpoint(merged, global)
			}
			ckpt++
		}
		return nil
	}

	var serialIdx func(idx int) bool
	if serial != nil {
		serialIdx = func(idx int) bool { return serial(cs[idx].start) }
	}
	if err := orderedChunks(cfg.workers(), len(cs), serialIdx, work, reduce); err != nil {
		return nil, err
	}
	if kept.traces != nil {
		if err := kept.fold(cfg, &spec, global, size); err != nil {
			return nil, err
		}
	}
	return global, nil
}

// poolRefills counts the New calls of the engine's buffer pools: the
// per-run chunk buffers and the synthesizers' lane scratch. A refill
// allocates a whole buffer, so the allocation tests use the counts to
// tell refills apart from steady-state allocations (the race detector
// makes sync.Pool drop items at random).
var poolRefills struct{ batch, scratch atomic.Int64 }

// record validates trace j of a chunk after its synthesis and files
// its trace, hypothesis and class views for the reducer.
func (bb *batchBuf) record(spec *Spec, j, traceIdx int) error {
	s := &bb.samples[j]
	if len(s.Trace) != spec.Samples {
		return fmt.Errorf("engine: trace %d has %d samples, want %d", traceIdx, len(s.Trace), spec.Samples)
	}
	bb.traces[j] = s.Trace
	for b, bank := range spec.Banks {
		if bank.Classes == nil {
			bb.hyps[b][j] = s.Hyps[b]
			continue
		}
		cl := s.Class[b]
		if cl < 0 || cl >= len(bank.Classes) {
			return fmt.Errorf("engine: trace %d bank %d class %d out of [0,%d)",
				traceIdx, b, cl, len(bank.Classes))
		}
		bb.classes[b][j] = cl
	}
	return nil
}

// batchBuf is one chunk of in-flight acquisitions: Sample slots with
// their per-trace private rngs, plus the views handed to the reducer's
// AddBatch calls. srcs[j] is the raw stream under rngs[j] — the fused
// batch expansion draws noise in bulk straight off it, continuing the
// exact stream position the rand.Rand wrapper left. group, expand and
// env are the persistent per-buffer state of the fused path, kept here
// so steady-state chunks allocate nothing.
type batchBuf struct {
	samples []Sample
	traces  [][]float64
	hyps    [][][]float64 // [bank][trace] prediction vectors (classic banks)
	classes [][]int       // [bank][trace] model-input classes (class banks)
	rngs    []*rand.Rand
	srcs    []*splitMixSource
	group   groupRunner
	expand  power.BatchExpand
	env     osnoise.Scratch
	// byVariant[v] lists the chunk slots of the traces running variant
	// v, in trace order (RunBatched's per-variant grouping).
	byVariant [][]int
}
