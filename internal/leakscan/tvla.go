package leakscan

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/pipeline"
	"repro/internal/sca"
	"repro/internal/trace"
)

// TVLAResult is the outcome of a fixed-vs-random Welch t-test leakage
// assessment — the non-specific methodology complementing the paper's
// model-based CPA detection (included as an extension; see [16] in the
// paper for the tool-oriented motivation).
type TVLAResult struct {
	// MaxT is the largest absolute t statistic over all samples; Sample
	// its index.
	MaxT   float64
	Sample int
	// Detected applies the conventional |t| > 4.5 threshold.
	Detected bool
	// TracesPerGroup is the per-group acquisition count.
	TracesPerGroup int
}

// TVLAThreshold is the conventional detection threshold.
const TVLAThreshold = 4.5

// ValidateTVLA reports the first option RunTVLA would refuse, without
// running anything.
func (opt *Options) ValidateTVLA() error {
	if err := opt.validate(); err != nil {
		return err
	}
	if opt.Traces%2 != 0 {
		return fmt.Errorf("leakscan: TVLA needs an even trace count for two equal groups, got %d", opt.Traces)
	}
	return nil
}

// RunTVLA performs a fixed-vs-random t-test on one Table 2 benchmark:
// group 0 (even trace indices) re-runs the sequence with one fixed
// operand draw, group 1 (odd indices) with fresh random draws, and the
// per-sample Welch t statistic flags any data-dependent consumption
// without assuming a power model. The trace count must be even, so the
// two groups are equal.
//
// Traces are synthesized through the engine's batched replay path; the
// group-1 operand draws and all measurement noise come from each
// trace's private stream, and the Welch accumulation happens on the
// ordered reducer (Spec.Emit) — so the t statistics are bit-identical
// for any worker count, lane width and synthesis mode.
func RunTVLA(b *Benchmark, opt Options) (*TVLAResult, error) {
	if err := opt.ValidateTVLA(); err != nil {
		return nil, err
	}
	prog, _, err := b.program()
	if err != nil {
		return nil, err
	}

	calCore, err := pipeline.New(opt.Core, nil)
	if err != nil {
		return nil, err
	}
	b.Setup(rand.New(rand.NewSource(1)), calCore)
	cal, err := calCore.Run(prog)
	if err != nil {
		return nil, err
	}
	nSamples := len(cal.Timeline) * opt.Model.SamplesPerCycle

	synth, err := engine.NewSynthesizer(opt.Synth, opt.Core, prog)
	if err != nil {
		return nil, err
	}
	// Group 0 (even indices) replays one fixed operand draw; group 1
	// draws fresh operands from the trace's private stream.
	fixedSeed := opt.Seed ^ 0x0f1ced
	w := sca.NewWelch(nSamples)
	_, err = engine.RunBatched(
		opt.Config,
		engine.Spec{
			Traces: opt.Traces, Samples: nSamples, Seed: opt.Seed,
			Emit: func(i int, tr trace.Trace, _ []byte) error { return w.Add(i&1, tr) },
		},
		engine.BatchGen{
			Variants: []*engine.Synthesizer{synth},
			Model:    &opt.Model,
			Averages: opt.Averages,
			Prepare: func(i int, rng *rand.Rand, core *pipeline.Core, _ *engine.Sample) error {
				ops := rng
				if i&1 == 0 {
					ops = rand.New(rand.NewSource(fixedSeed))
				}
				b.Setup(ops, core)
				return nil
			},
		})
	if err != nil {
		return nil, err
	}
	ts := w.T()
	maxT, idx := sca.MaxAbs(ts)
	return &TVLAResult{
		MaxT: maxT, Sample: idx,
		Detected:       maxT > TVLAThreshold,
		TracesPerGroup: opt.Traces / 2,
	}, nil
}
