// Package masking provides first-order Boolean masking building blocks
// and the §4.2 case study: the same provably share-separated computation
// is secure or broken depending on instruction scheduling and issue
// behaviour of the superscalar core.
//
// A first-order Boolean masking splits a secret v into two shares
// s0 ^ s1 == v, each uniformly distributed. Algorithmic proofs assume the
// shares are never combined; §4.2 shows the micro-architecture combines
// them anyway when two instructions touching complementary shares are
// issued back-to-back in the same operand position (IS/EX bus sharing),
// when a nop border exposes them on the write-back bus, or when one
// lingers in the MDR. Dual-issuing the two share computations, by
// contrast, routes them over distinct buses in the same cycle — the
// paper's observation that dual-issue can be exploited *for* security.
package masking

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/sca"
)

// Split returns a fresh two-share Boolean masking of v.
func Split(rng *rand.Rand, v uint32) (s0, s1 uint32) {
	m := rng.Uint32()
	return m, v ^ m
}

// Combine recovers the masked value.
func Combine(s0, s1 uint32) uint32 { return s0 ^ s1 }

// XorConst XORs a public constant into a masked value share-wise (only
// one share needs updating).
func XorConst(s0, s1, c uint32) (uint32, uint32) { return s0 ^ c, s1 }

// Refresh re-randomizes a masking with fresh randomness.
func Refresh(rng *rand.Rand, s0, s1 uint32) (uint32, uint32) {
	r := rng.Uint32()
	return s0 ^ r, s1 ^ r
}

// And computes a two-share masking of a AND b from the maskings of a and
// b using the Trichina construction with one fresh random word.
func And(rng *rand.Rand, a0, a1, b0, b1 uint32) (c0, c1 uint32) {
	r := rng.Uint32()
	c0 = r
	c1 = ((r ^ a0&b0) ^ a0&b1) ^ (a1&b0 ^ a1&b1)
	return c0, c1
}

// Gadget couples a masked-computation program with its per-run
// initialization and the taint specification naming the shares. The
// secret's shares live in r0 (share 0) and r1 (share 1); r2 and r3 hold
// fresh masks.
type Gadget struct {
	// Name describes the scheduling variant.
	Name string
	// Prog is the gadget's program.
	Prog *isa.Program
	// Spec labels the shares for the static checker.
	Spec core.TaintSpec
	// Setup draws a fresh masking of secret and fresh masks, loads them
	// into the core, and returns the secret (the value CPA targets).
	Setup func(rng *rand.Rand, c *pipeline.Core, secret uint32)
}

const gadgetPad = 8

func gadgetSpec() core.TaintSpec {
	return core.TaintSpec{Regs: map[isa.Reg]core.Labels{
		isa.R0: {"key.0"},
		isa.R1: {"key.1"},
	}}
}

func gadgetSetup(rng *rand.Rand, c *pipeline.Core, secret uint32) {
	s0, s1 := Split(rng, secret)
	c.SetReg(isa.R0, s0)
	c.SetReg(isa.R1, s1)
	c.SetReg(isa.R2, rng.Uint32())
	c.SetReg(isa.R3, rng.Uint32())
}

func pad(n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s += "nop\n"
	}
	return s
}

// NaiveXor remasks the two shares back-to-back with reg-reg EORs: the
// pair cannot dual-issue (two reg-reg ALU ops need four read ports), so
// the shares meet in the same operand position of successive single
// issues — the §4.2 recombination. Algorithmically this gadget is a
// perfectly valid share-wise remasking.
func NaiveXor() Gadget {
	src := pad(gadgetPad) +
		"eor r4, r0, r2\n" + // share 0 ^ m
		"eor r5, r1, r3\n" + // share 1 ^ m'
		pad(gadgetPad)
	return Gadget{
		Name:  "naive back-to-back remasking",
		Prog:  isa.MustAssemble(src),
		Spec:  gadgetSpec(),
		Setup: gadgetSetup,
	}
}

// SeparatedXor interleaves an independent computation between the two
// share instructions so their operands never sit on the same bus in
// consecutive assertions — the instruction-scheduling countermeasure of
// §4.2 (Seuschek et al. applied to a superscalar core). Two spacers are
// needed: with one, the spacer dual-issues with the first share
// instruction and the second share instruction still follows it
// back-to-back on the same bus (§4.2 point iii: dual-issue lets
// non-consecutive instructions combine).
func SeparatedXor() Gadget {
	src := pad(gadgetPad) +
		"eor r4, r0, r2\n" +
		"add r6, r7, r8\n" + // independent spacer
		"add r9, r7, r8\n" + // second spacer: defeats dual-issue skip
		"eor r5, r1, r3\n" +
		pad(gadgetPad)
	return Gadget{
		Name:  "schedule-separated remasking",
		Prog:  isa.MustAssemble(src),
		Spec:  gadgetSpec(),
		Setup: gadgetSetup,
	}
}

// DualIssueXor pairs the two share computations so they issue in the
// same cycle over distinct buses — dual-issue exploited as a
// countermeasure (§4.2): "dual-issuing may also be fruitfully employed
// to enhance the security of a software implementation of a masking
// scheme". The immediate forms keep the pair within the three read
// ports.
func DualIssueXor() Gadget {
	src := pad(gadgetPad) +
		"eor r4, r0, #0x5A5A5A5A\n" +
		"eor r5, r1, #0xA5A5A5A5\n" +
		pad(gadgetPad)
	return Gadget{
		Name:  "dual-issued share pair",
		Prog:  isa.MustAssemble(src),
		Spec:  gadgetSpec(),
		Setup: gadgetSetup,
	}
}

// CheckStatic runs the static share-recombination checker on the gadget.
func CheckStatic(g Gadget, cfg pipeline.Config) ([]core.Violation, error) {
	init := func(c *pipeline.Core) {
		// Any fixed masking works: the static model is value-independent.
		g.Setup(rand.New(rand.NewSource(1)), c, 0)
	}
	rep, err := core.Analyze(g.Prog, cfg, power.DefaultModel(), init)
	if err != nil {
		return nil, err
	}
	taints, err := core.ComputeTaint(g.Prog, cfg, init, g.Spec)
	if err != nil {
		return nil, err
	}
	return core.FindShareViolations(rep, taints, "key"), nil
}

// LeakResult is the dynamic first-order evaluation of a gadget.
type LeakResult struct {
	// MaxCorr is the strongest correlation of HW(secret) anywhere in the
	// trace; Confidence its Fisher-z confidence.
	MaxCorr    float64
	Confidence float64
	// Detected applies the paper's >99.5% criterion.
	Detected bool
	Traces   int
	// BatchRuns counts the lane groups the batch VM synthesized after
	// the verification window; FallbackReason says why traces replay
	// was meant to cover were simulated ("" when none were).
	BatchRuns      int64
	FallbackReason string
}

// EvalOptions configures a dynamic gadget evaluation. The zero value
// plus Traces and Seed reproduces EvaluateLeakage.
type EvalOptions struct {
	// Traces is the number of gadget executions to acquire.
	Traces int
	// Seed derives every trace's private random stream (engine.TraceRNG).
	Seed int64
	// Config is the run's scheduling; results are bit-identical for
	// every value.
	engine.Config
}

// evalAverages is the evaluation's per-acquisition averaging factor,
// the paper's setting.
const evalAverages = 16

// EvaluateLeakage runs a first-order CPA-style test: the secret varies
// randomly per execution (with a fresh masking each time) and the
// evaluator checks whether HW(secret) correlates anywhere in the power
// trace. A sound first-order masking shows nothing; a recombining
// schedule leaks.
func EvaluateLeakage(g Gadget, cfg pipeline.Config, traces int, seed int64) (*LeakResult, error) {
	return EvaluateLeakageOpt(g, cfg, EvalOptions{Traces: traces, Seed: seed})
}

// EvaluateLeakageOpt is EvaluateLeakage with explicit acquisition
// options. Every per-trace draw — the secret, the gadget's fresh
// masks, the measurement noise — comes from the trace's private
// SplitMix64 stream, so the result is a bit-stable pure function of
// (gadget, config, options) regardless of worker count — and of which
// synthesis path a trace took.
func EvaluateLeakageOpt(g Gadget, cfg pipeline.Config, opt EvalOptions) (*LeakResult, error) {
	if opt.Traces < 8 {
		return nil, fmt.Errorf("masking: need at least 8 traces, got %d", opt.Traces)
	}
	model := power.DefaultModel()
	synth, err := engine.NewSynthesizer(engine.ModeAuto, cfg, g.Prog)
	if err != nil {
		return nil, err
	}
	// The timeline length is input-independent; any fixed setup works.
	nSamples := 0
	err = synth.Run(
		func(c *pipeline.Core) { g.Setup(rand.New(rand.NewSource(1)), c, 0) },
		func(tl pipeline.Timeline, _ *pipeline.Core) error {
			nSamples = len(tl) * model.SamplesPerCycle
			return nil
		})
	if err != nil {
		return nil, err
	}

	banks, err := engine.RunBatched(
		opt.Config,
		engine.Spec{Traces: opt.Traces, Samples: nSamples, Banks: engine.HypothesisBanks(2), Seed: opt.Seed},
		engine.BatchGen{
			Variants: []*engine.Synthesizer{synth},
			Model:    &model,
			Averages: evalAverages,
			Prepare: func(i int, rng *rand.Rand, c *pipeline.Core, s *engine.Sample) error {
				secret := rng.Uint32()
				g.Setup(rng, c, secret)
				// Hypothesis 0 is the secret's HW; hypothesis 1 a
				// draw-free decoy so the CPA engine has its required
				// second column. Only hypothesis 0 is read.
				s.Hyps[0][0] = float64(sca.HW(secret))
				s.Hyps[0][1] = float64(i & 1)
				return nil
			},
		})
	if err != nil {
		return nil, err
	}
	peak, _ := banks[0].Peak(0)
	conf := sca.CorrConfidence(peak, opt.Traces)
	// Bonferroni over the full trace: the evaluator scans every sample.
	thr := 1 - (1-0.995)/float64(nSamples)
	return &LeakResult{
		MaxCorr:        peak,
		Confidence:     conf,
		Detected:       conf > thr,
		Traces:         opt.Traces,
		BatchRuns:      synth.BatchRuns(),
		FallbackReason: synth.FallbackReason(),
	}, nil
}
