package attack

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/target"
)

// TestFig3UsesReplay pins the auto-mode contract on the AES target: the
// replay program compiles, survives its verification window, and the
// attack still recovers the key — i.e. the hot path really is replay.
func TestFig3UsesReplay(t *testing.T) {
	opt := DefaultFig3Options()
	opt.Traces = 400
	opt.Rounds = 1
	key := [16]byte{0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C}
	res, err := RunCPA(target.Default, key[:], opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replayed {
		t.Fatalf("auto mode fell back to simulation: %s", res.FallbackReason)
	}
	if !res.Success() {
		t.Fatalf("key byte not recovered under replay: rank %d", res.Rank)
	}
}

// TestFig3ReplayBitIdenticalToSimulate is the figure-level equivalence
// assertion: the full attack result under auto mode — batch-VM replay
// past the verification window — equals the full-simulation result bit
// for bit.
func TestFig3ReplayBitIdenticalToSimulate(t *testing.T) {
	key := [16]byte{0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C}
	run := func(mode engine.Mode) *Fig3Result {
		opt := DefaultFig3Options()
		opt.Traces = 300
		opt.Rounds = 1
		opt.Synth = mode
		res, err := RunCPA(target.Default, key[:], opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rep, sim := run(engine.ModeAuto), run(engine.ModeSimulate)
	if !rep.Batched {
		t.Fatalf("auto mode never batched (fallback %q)", rep.FallbackReason)
	}
	if rep.Recovered != sim.Recovered || rep.Rank != sim.Rank || rep.Confidence != sim.Confidence {
		t.Fatalf("replay result differs: %+v vs %+v", rep, sim)
	}
	for i := range sim.CorrTrace {
		if rep.CorrTrace[i] != sim.CorrTrace[i] {
			t.Fatalf("correlation trace differs at sample %d: %v vs %v", i, rep.CorrTrace[i], sim.CorrTrace[i])
		}
	}
}

// TestFig3AutoEqualsSimulateAcrossAblations sweeps every combination
// of the six modelling toggles through a small Figure 3 attack and
// asserts that auto-mode synthesis — lane-parallel batched replay where
// the schedule allows, verified fallback where it does not (e.g. the
// NopZeroesWB ablation pins the cipher's data-dependent conditionals) —
// is bit-identical to pure simulation at every supported lane width,
// including the single-lane degenerate batch. The trace count leaves an
// odd tail past the verification window, so whole, partial and
// single-trace final batches are all covered.
func TestFig3AutoEqualsSimulateAcrossAblations(t *testing.T) {
	key := [16]byte{0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C}
	for mask := 0; mask < 64; mask++ {
		opt := DefaultFig3Options()
		opt.Traces = 117
		opt.Rounds = 1
		opt.Averages = 1
		opt.Core.DualIssue = mask&1 != 0
		opt.Core.StructuralPolicyOnly = mask&2 != 0
		opt.Core.AlignedPairs = mask&4 != 0
		opt.Core.NopZeroesWB = mask&8 != 0
		opt.Core.AlignBuffer = mask&16 != 0
		opt.Core.StoreLaneReplication = mask&32 != 0

		opt.Synth = engine.ModeSimulate
		sim, err := RunCPA(target.Default, key[:], opt)
		if err != nil {
			t.Fatalf("cfg %#x simulate: %v", mask, err)
		}
		for _, lanes := range []int{1, 8, 16, 32, 64} {
			opt.Synth = engine.ModeAuto
			opt.Lanes = lanes
			auto, err := RunCPA(target.Default, key[:], opt)
			if err != nil {
				t.Fatalf("cfg %#x lanes %d auto: %v", mask, lanes, err)
			}
			if auto.Recovered != sim.Recovered || auto.Rank != sim.Rank || auto.Confidence != sim.Confidence {
				t.Fatalf("cfg %#x lanes %d: auto result differs from simulation (fallback=%v %q)",
					mask, lanes, !auto.Replayed, auto.FallbackReason)
			}
			for i := range sim.CorrTrace {
				if auto.CorrTrace[i] != sim.CorrTrace[i] {
					t.Fatalf("cfg %#x lanes %d: correlation trace differs at sample %d (fallback=%v %q)",
						mask, lanes, i, !auto.Replayed, auto.FallbackReason)
				}
			}
			if auto.Replayed && !auto.Batched {
				t.Fatalf("cfg %#x lanes %d: replay live but batch path never ran", mask, lanes)
			}
		}
	}
}

// TestFig4ReplayBitIdenticalToSimulate covers the loaded-Linux figure:
// auto mode, batched past the verification window, and simulation
// agree bit for bit through the osnoise chain.
func TestFig4ReplayBitIdenticalToSimulate(t *testing.T) {
	key := [16]byte{0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C}
	run := func(mode engine.Mode) *Fig4Result {
		opt := DefaultFig4Options()
		opt.Traces = 3 * engine.VerifyRuns
		opt.Synth = mode
		res, err := RunFigure4(key, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rep, sim := run(engine.ModeAuto), run(engine.ModeSimulate)
	if !rep.Batched {
		t.Fatalf("auto mode never batched (fallback %q)", rep.FallbackReason)
	}
	if rep.Recovered != sim.Recovered || rep.Rank != sim.Rank ||
		rep.BestCorr != sim.BestCorr || rep.Confidence != sim.Confidence {
		t.Fatalf("replay result differs from simulation")
	}
	for i := range sim.CorrTrace {
		if rep.CorrTrace[i] != sim.CorrTrace[i] {
			t.Fatalf("correlation trace differs at sample %d", i)
		}
	}
}
