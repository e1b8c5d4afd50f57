// Package masking is the §4.2 case study: the same provably
// share-separated computation is secure or broken depending on
// instruction scheduling and issue behaviour of the superscalar core.
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
//
// The case study's gadgets are the keyed schedules (Schedules): the
// naive, separated and dual-issued remaskings and the masked S-box
// lookup. CheckStatic audits a remasking schedule's program with the
// leakage model and taint tracking; EvaluateKeyedCPA attacks any
// schedule, under any countermeasure combination, with CPA on
// synthesized traces.
package masking

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/power"
)

// Split returns a fresh two-share Boolean masking of v.
func Split(rng *rand.Rand, v uint32) (s0, s1 uint32) {
	m := rng.Uint32()
	return m, v ^ m
}

// Combine recovers the masked value.
func Combine(s0, s1 uint32) uint32 { return s0 ^ s1 }

// CheckStatic runs the static share-recombination checker on one
// reg-share schedule's base program — the keyed variant with no
// shuffle or jitter selection. r0 and r1 hold the secret's shares
// (labelled key.0 and key.1), r2 and r3 fresh masks. The masked S-box
// lookup carries its shares in memory, not in the two registers this
// check labels, so ScheduleSbox is rejected like an unknown name.
func CheckStatic(schedule string, cfg pipeline.Config) ([]core.Violation, error) {
	if schedule == ScheduleSbox {
		return nil, fmt.Errorf("masking: static share check needs a reg-share schedule, not %q", schedule)
	}
	kv, err := buildKeyedVariants(schedule, Countermeasure{})
	if err != nil {
		return nil, err
	}
	prog := kv.progs[0]
	init := func(c *pipeline.Core) {
		// Any fixed masking works: the static model is value-independent.
		rng := rand.New(rand.NewSource(1))
		s0, s1 := Split(rng, 0)
		c.SetReg(isa.R0, s0)
		c.SetReg(isa.R1, s1)
		c.SetReg(isa.R2, rng.Uint32())
		c.SetReg(isa.R3, rng.Uint32())
	}
	rep, err := core.Analyze(prog, cfg, power.DefaultModel(), init)
	if err != nil {
		return nil, err
	}
	spec := core.TaintSpec{Regs: map[isa.Reg]core.Labels{
		isa.R0: {"key.0"},
		isa.R1: {"key.1"},
	}}
	taints, err := core.ComputeTaint(prog, cfg, init, spec)
	if err != nil {
		return nil, err
	}
	return core.FindShareViolations(rep, taints, "key"), nil
}
