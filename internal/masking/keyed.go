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
// masked table-recomputation S-box lookup.
const (
	ScheduleNaive     = "naive"
	ScheduleSeparated = "separated"
	ScheduleDualIssue = "dualissue"
	ScheduleSbox      = "sbox"
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
			var prog *isa.Program
			switch schedule {
			case ScheduleNaive:
				src := pad(pre) +
					eorLine("r4", "r0", "r2", sw&1 != 0) +
					eorLine("r5", "r1", "r3", sw&2 != 0) +
					pad(post)
				p, err := isa.Assemble(src)
				if err != nil {
					return nil, err
				}
				prog = p
			case ScheduleSeparated:
				src := pad(pre) +
					eorLine("r4", "r0", "r2", sw&1 != 0) +
					"add r6, r7, r8\n" +
					"add r9, r7, r8\n" +
					eorLine("r5", "r1", "r3", sw&2 != 0) +
					pad(post)
				p, err := isa.Assemble(src)
				if err != nil {
					return nil, err
				}
				prog = p
			case ScheduleDualIssue:
				src := pad(pre) +
					"eor r4, r0, #0x5A5A5A5A\n" +
					"eor r5, r1, #0xA5A5A5A5\n" +
					pad(post)
				p, err := isa.Assemble(src)
				if err != nil {
					return nil, err
				}
				prog = p
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
				p, err := b.Build()
				if err != nil {
					return nil, err
				}
				prog = p
			default:
				return nil, fmt.Errorf("masking: unknown schedule %q", schedule)
			}
			kv.progs = append(kv.progs, prog)
		}
	}
	return kv, nil
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
	// averaging factor (0: 16).
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
	// VM synthesized after that variant's verification window;
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
// by variant on the batch path. Order 2 runs the engine twice over
// identical per-trace streams: the first pass fixes the mean trace, the
// second accumulates the centered products of every sample pair (an
// engine.Order2 bank over the full trace). Every random
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
	avg := opt.Averages
	if avg <= 0 {
		avg = 16
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
		Averages: avg,
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
	spec := engine.Spec{
		Traces:  opt.Traces,
		Samples: nSamples,
		Seed:    opt.Seed,
		Banks:   []engine.Bank{{Hyps: 256, Classes: table}},
	}
	banks, err := engine.RunBatched(opt.Config, spec, bg)
	if err != nil {
		return nil, err
	}
	pairs := 0
	acc := banks[0]
	if opt.Order == 2 {
		// Second pass over identical per-trace streams, centered on the
		// first pass's mean trace.
		means := banks[0].(*sca.ClassCPA).MeanTrace()
		spec.Banks = []engine.Bank{{Hyps: 256, Classes: table, Order2: &engine.Order2{Means: means}}}
		banks2, err := engine.RunBatched(opt.Config, spec, bg)
		if err != nil {
			return nil, err
		}
		acc = banks2[0]
		pairs = sca.Window{Hi: nSamples}.Pairs()
	}
	att := acc.Result()
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
