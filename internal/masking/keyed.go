package masking

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/aes"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/sca"
)

// Countermeasure is a parsed combination of the defensive knobs the
// countermeasure campaigns sweep: first-order Boolean masking, operand
// shuffling of the share instructions, and random pipeline-delay
// insertion (jitter).
type Countermeasure struct {
	// Mask splits the attacked intermediate into two Boolean shares.
	Mask bool
	// Shuffle randomizes the operand order of the two share EORs per
	// execution, so the IS/EX-bus recombination only lines up on a
	// fraction of the traces. Only meaningful for the reg-reg schedules.
	Shuffle bool
	// Jitter inserts a random number of nop pairs before the gadget
	// (compensated after it, so the trace length stays fixed), spreading
	// the leaking cycles over four positions.
	Jitter bool
}

// ParseCountermeasure parses a campaign axis value: "none", or a
// "+"-joined subset of {mask, shuffle, jitter}.
func ParseCountermeasure(s string) (Countermeasure, error) {
	var c Countermeasure
	if s == "none" || s == "" {
		return c, nil
	}
	for _, part := range strings.Split(s, "+") {
		switch part {
		case "mask":
			c.Mask = true
		case "shuffle":
			c.Shuffle = true
		case "jitter":
			c.Jitter = true
		default:
			return c, fmt.Errorf("masking: unknown countermeasure %q (want none, mask, shuffle, jitter)", part)
		}
	}
	return c, nil
}

// String renders the canonical axis value.
func (c Countermeasure) String() string {
	var parts []string
	if c.Mask {
		parts = append(parts, "mask")
	}
	if c.Shuffle {
		parts = append(parts, "shuffle")
	}
	if c.Jitter {
		parts = append(parts, "jitter")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Keyed gadget schedules: the three §4.2 remasking variants plus the
// masked table-recomputation S-box lookup. Each remasking variant is a
// perfectly valid share-wise remasking of the shares in r0 and r1 with
// the masks in r2 and r3; only the schedule differs.
const (
	// ScheduleNaive remasks the two shares back-to-back with reg-reg
	// EORs: the pair cannot dual-issue (two reg-reg ALU ops need four
	// read ports), so the shares meet in the same operand position of
	// successive single issues — the §4.2 recombination.
	ScheduleNaive = "naive"
	// ScheduleSeparated interleaves two independent spacers between the
	// share instructions — the instruction-scheduling countermeasure
	// (Seuschek et al. applied to a superscalar core). With one spacer
	// it would dual-issue with the first share instruction, and the
	// second would still follow it back-to-back on the same bus (§4.2
	// point iii: dual-issue lets non-consecutive instructions combine).
	ScheduleSeparated = "separated"
	// ScheduleDualIssue pairs the share computations so they issue in
	// the same cycle over distinct buses — dual-issue exploited as a
	// countermeasure (§4.2). The immediate forms keep the pair within
	// the three read ports; on a scalar core the pair issues
	// back-to-back and recombines.
	ScheduleDualIssue = "dualissue"
	// ScheduleSbox is the masked table-recomputation S-box lookup.
	ScheduleSbox = "sbox"
)

// Schedules lists the keyed gadget schedules in campaign order.
func Schedules() []string {
	return []string{ScheduleNaive, ScheduleSeparated, ScheduleDualIssue, ScheduleSbox}
}

// jitterSteps is the number of equally likely jitter positions; each
// step shifts the gadget by one nop pair, compensated after it.
const jitterSteps = 4

// keyedVariants holds the pre-assembled program variants of one keyed
// scenario, indexed jd*swaps + sw for jitter position jd and operand
// order sw. Only the variants the countermeasure can select are built:
// one jitter position without jitter, one operand order without
// shuffling.
type keyedVariants struct {
	ctr   Countermeasure
	progs []*isa.Program
	swaps int // operand-order combinations (1 when not shuffling)
}

// pick draws a trace's plaintext byte and countermeasure selections —
// the first draws of its stream — and returns the plaintext and the
// selected variant.
func (kv *keyedVariants) pick(rng *rand.Rand) (pt byte, v int) {
	pt = byte(rng.Intn(256))
	sw, jd := 0, 0
	if kv.ctr.Shuffle {
		sw = rng.Intn(kv.swaps)
	}
	if kv.ctr.Jitter {
		jd = rng.Intn(jitterSteps)
	}
	return pt, jd*kv.swaps + sw
}

// gadgetPad is the nop padding on either side of a gadget.
const gadgetPad = 8

// eorLine renders one share EOR with an optional operand swap.
func eorLine(rd, ra, rb string, swap bool) string {
	if swap {
		ra, rb = rb, ra
	}
	return "eor " + rd + ", " + ra + ", " + rb + "\n"
}

// buildKeyedVariants assembles every selectable (jitter, swap) program
// of a schedule. The total nop count is constant across jitter
// positions — 2*jd leading and 2*(jitterSteps-1-jd) trailing extra
// nops — so every variant runs for the same cycle count (verified by
// calibration).
func buildKeyedVariants(schedule string, ctr Countermeasure) (*keyedVariants, error) {
	kv := &keyedVariants{ctr: ctr, swaps: 1}
	if ctr.Shuffle {
		switch schedule {
		case ScheduleNaive, ScheduleSeparated:
			kv.swaps = 4
		default:
			return nil, fmt.Errorf("masking: shuffle countermeasure needs reg-reg share instructions (schedule %q)", schedule)
		}
	}
	jitters := 1
	if ctr.Jitter {
		jitters = jitterSteps
	}
	for jd := 0; jd < jitters; jd++ {
		pre := gadgetPad + 2*jd
		post := gadgetPad + 2*(jitterSteps-1-jd)
		for sw := 0; sw < kv.swaps; sw++ {
			prog, err := keyedProgram(schedule, pre, post, sw&1 != 0, sw&2 != 0)
			if err != nil {
				return nil, err
			}
			kv.progs = append(kv.progs, prog)
		}
	}
	return kv, nil
}

// keyedProgram assembles one schedule between pre leading and post
// trailing nops; swap0 and swap1 swap the operands of the share-0 and
// share-1 EORs of the reg-reg schedules.
func keyedProgram(schedule string, pre, post int, swap0, swap1 bool) (*isa.Program, error) {
	var body string
	switch schedule {
	case ScheduleNaive:
		body = eorLine("r4", "r0", "r2", swap0) + // share 0 ^ m
			eorLine("r5", "r1", "r3", swap1) // share 1 ^ m'
	case ScheduleSeparated:
		body = eorLine("r4", "r0", "r2", swap0) +
			"add r6, r7, r8\n" + // independent spacer
			"add r9, r7, r8\n" + // second spacer: defeats dual-issue skip
			eorLine("r5", "r1", "r3", swap1)
	case ScheduleDualIssue:
		body = "eor r4, r0, #0x5A5A5A5A\n" +
			"eor r5, r1, #0xA5A5A5A5\n"
	case ScheduleSbox:
		b := isa.NewBuilder()
		b.Nop(pre)
		b.LdrbReg(isa.R4, isa.R2, isa.R0) // r4 = T[masked input]
		b.Strb(isa.R4, isa.R3, 0)         // store masked output
		// Two spacer nops keep the mask transport's write-back off
		// the lookup's: back-to-back they would recombine
		// HD(S[v]^mOut, mOut) = HW(S[v]) on the WB bus — the §4.2
		// recombination — and break the masking at first order.
		b.Nop(2)
		b.Mov(isa.R6, isa.R5) // transport the output mask
		b.Nop(post)
		return b.Build()
	default:
		return nil, fmt.Errorf("masking: unknown schedule %q", schedule)
	}
	return isa.Assemble(strings.Repeat("nop\n", pre) + body + strings.Repeat("nop\n", post))
}

// ValidateCombination reports whether schedule supports the
// countermeasure combination without running anything — the cheap
// spec-validation entry point (it assembles the program variants and
// discards them).
func ValidateCombination(schedule string, ctr Countermeasure) error {
	_, err := buildKeyedVariants(schedule, ctr)
	return err
}

// KeyedOptions configures a keyed countermeasure evaluation.
type KeyedOptions struct {
	// Schedule selects the gadget (Schedules()).
	Schedule string
	// Ctr is the countermeasure combination under test.
	Ctr Countermeasure
	// Order selects first- or second-order CPA (1 or 2).
	Order int
	// Key is the secret key byte the attack must recover.
	Key byte
	// Traces is the number of acquisitions; Averages the per-acquisition
	// averaging factor (at least 1).
	Traces   int
	Averages int
	// Seed derives every trace's private random stream.
	Seed int64
	// Model is the power model; Core the micro-architecture.
	Model power.Model
	Core  pipeline.Config
	// Synth selects the trace-synthesis strategy (engine.ModeAuto by
	// default).
	Synth engine.Mode
	// Config is the run's scheduling. Results are bit-identical for
	// every synthesis mode and every Config value.
	engine.Config
}

// DefaultKeyedOptions returns the countermeasure-campaign defaults.
func DefaultKeyedOptions() KeyedOptions {
	return KeyedOptions{
		Schedule: ScheduleSbox,
		Ctr:      Countermeasure{Mask: true},
		Order:    1,
		Traces:   4000,
		Averages: 16,
		Seed:     1,
		Model:    power.DefaultModel(),
		Core:     pipeline.DefaultConfig(),
	}
}

// KeyedResult is the outcome of one keyed countermeasure evaluation.
type KeyedResult struct {
	Schedule string
	Ctr      string
	Order    int
	// Key is the true key byte; Recovered the best-ranked hypothesis;
	// Rank the true key's 0-based rank; Success whether they coincide.
	Key       byte
	Recovered byte
	Rank      int
	Success   bool
	// BestCorr is the winning hypothesis's peak correlation, TrueCorr
	// the true key's, and Confidence the Fisher-z confidence that the
	// winner beats the runner-up.
	BestCorr   float64
	TrueCorr   float64
	Confidence float64
	// Traces, Samples and Pairs record the acquisition geometry (Pairs
	// is 0 for first-order runs).
	Traces  int
	Samples int
	Pairs   int
	// BatchRuns counts, per program variant, the lane groups the batch
	// VM synthesized after that variant's verification window in the
	// evaluation's one engine run, at either order;
	// FallbackReason is, in variant order, the first reason a variant
	// simulated traces replay was meant to cover ("" when none did).
	// Neither is part of a campaign's canonical results.
	BatchRuns      []int64
	FallbackReason string
}

const (
	keyedTableAddr = 0x2000
	keyedOutAddr   = 0x3000
)

// EvaluateKeyedCPA runs a keyed CPA attack against one masked-gadget
// schedule under a countermeasure combination: per trace a random
// plaintext byte pt selects the intermediate v = SubBytes(pt ^ key),
// the gadget manipulates v's shares, and a conditional-sum CPA over the
// 256 key hypotheses tries to recover the key from the synthesized
// power. Every program variant the countermeasure selects among has
// its own Synthesizer, and the engine runs each chunk's traces grouped
// by variant on the batch path. Order 2 accumulates the centered
// products of every sample pair instead, in the same single run (an
// engine.Order2 bank over the full trace, centered on the run's own
// mean trace). Every random
// draw — plaintext, countermeasure selections, masks, noise — comes
// from the trace's private SplitMix64 stream, so the result is a
// bit-stable pure function of the options for any synthesis mode, lane
// width and worker count.
func EvaluateKeyedCPA(opt KeyedOptions) (*KeyedResult, error) {
	if opt.Traces < 8 {
		return nil, fmt.Errorf("masking: need at least 8 traces, got %d", opt.Traces)
	}
	if opt.Order != 1 && opt.Order != 2 {
		return nil, fmt.Errorf("masking: CPA order %d not supported (want 1 or 2)", opt.Order)
	}
	if err := opt.Model.Validate(); err != nil {
		return nil, err
	}
	if opt.Averages < 1 {
		return nil, fmt.Errorf("masking: averages must be >= 1, got %d", opt.Averages)
	}
	kv, err := buildKeyedVariants(opt.Schedule, opt.Ctr)
	if err != nil {
		return nil, err
	}

	// Calibration: every variant must run for the same cycle count, or
	// the fixed-length trace matrix (and the jitter countermeasure's
	// constant-time claim) would not hold.
	synths := make([]*engine.Synthesizer, len(kv.progs))
	nCycles := -1
	for v, prog := range kv.progs {
		if synths[v], err = engine.NewSynthesizer(opt.Synth, opt.Core, prog); err != nil {
			return nil, err
		}
		err := synths[v].Run(func(*pipeline.Core) {}, func(tl pipeline.Timeline, _ *pipeline.Core) error {
			if nCycles >= 0 && len(tl) != nCycles {
				return fmt.Errorf("masking: %s variants differ in cycle count (%d vs %d)",
					opt.Schedule, len(tl), nCycles)
			}
			nCycles = len(tl)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	nSamples := nCycles * opt.Model.SamplesPerCycle

	// Hypothesis table: class = plaintext byte, prediction = the
	// intermediate's Hamming weight under each key guess.
	table := make([][]float64, 256)
	for pt := range table {
		row := make([]float64, 256)
		for k := range row {
			row[k] = float64(sca.HW8(aes.Sbox[byte(pt)^byte(k)]))
		}
		table[pt] = row
	}

	bg := engine.BatchGen{
		Variants: synths,
		Variant: func(i int, rng *rand.Rand) int {
			_, v := kv.pick(rng)
			return v
		},
		Model:    &opt.Model,
		Averages: opt.Averages,
		// Fixed per-trace draw order: plaintext, countermeasure
		// selections, masks, then synthesis noise.
		Prepare: func(i int, rng *rand.Rand, c *pipeline.Core, s *engine.Sample) error {
			pt, _ := kv.pick(rng)
			v := aes.Sbox[pt^opt.Key]
			if opt.Schedule == ScheduleSbox {
				var ms *MaskedSbox
				if opt.Ctr.Mask {
					ms = NewMaskedSbox(rng)
				} else {
					ms = &MaskedSbox{Table: aes.Sbox}
				}
				c.Mem().WriteBytes(keyedTableAddr, ms.Table[:])
				c.SetReg(isa.R0, uint32((pt^opt.Key)^ms.MIn))
				c.SetReg(isa.R2, keyedTableAddr)
				c.SetReg(isa.R3, keyedOutAddr)
				c.SetReg(isa.R5, uint32(ms.MOut))
			} else {
				var s0, s1, mA, mB byte
				if opt.Ctr.Mask {
					s0 = byte(rng.Intn(256))
					s1 = v ^ s0
					mA = byte(rng.Intn(256))
					mB = byte(rng.Intn(256))
				} else {
					s0, s1 = v, 0
				}
				c.SetReg(isa.R0, uint32(s0))
				c.SetReg(isa.R1, uint32(s1))
				c.SetReg(isa.R2, uint32(mA))
				c.SetReg(isa.R3, uint32(mB))
			}
			s.Class[0] = int(pt)
			return nil
		},
	}
	bank := engine.Bank{Hyps: 256, Classes: table}
	pairs := 0
	if opt.Order == 2 {
		bank.Order2 = &engine.Order2{}
		pairs = sca.Window{Hi: nSamples}.Pairs()
	}
	spec := engine.Spec{Traces: opt.Traces, Samples: nSamples, Seed: opt.Seed, Banks: []engine.Bank{bank}}
	banks, err := engine.RunBatched(opt.Config, spec, bg)
	if err != nil {
		return nil, err
	}
	// The whole-trace magnitude ranking of Result, spread over the run's
	// workers.
	att := banks[0].(*sca.ClassCPA).ResultInEach(0, 0, false, opt.Config.Each)
	best, bestCorr := att.Best()
	trueCorr := att.Peaks[opt.Key]
	res := &KeyedResult{
		Schedule:   opt.Schedule,
		Ctr:        opt.Ctr.String(),
		Order:      opt.Order,
		Key:        opt.Key,
		Recovered:  byte(best),
		Rank:       att.RankOf(int(opt.Key)),
		Success:    best == int(opt.Key),
		BestCorr:   bestCorr,
		TrueCorr:   trueCorr,
		Confidence: att.DistinguishConfidence(),
		Traces:     opt.Traces,
		Samples:    nSamples,
		Pairs:      pairs,
		BatchRuns:  make([]int64, len(synths)),
	}
	for v, s := range synths {
		res.BatchRuns[v] = s.BatchRuns()
		if res.FallbackReason == "" {
			res.FallbackReason = s.FallbackReason()
		}
	}
	return res, nil
}
