package masking

import (
	"math"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/pipeline"
)

// Satellite prerequisite: the dynamic evaluator must be a bit-stable
// pure function of (gadget, config, traces, seed) — in particular
// invariant to the worker count, which the old shared-*rand.Rand loop
// was not.
func TestEvaluateLeakageDeterministic(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	want, err := EvaluateLeakage(NaiveXor(), cfg, 300, 11)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EvaluateLeakage(NaiveXor(), cfg, 300, 11)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(want.MaxCorr) != math.Float64bits(again.MaxCorr) ||
		math.Float64bits(want.Confidence) != math.Float64bits(again.Confidence) {
		t.Fatalf("two identical runs differ: %+v vs %+v", want, again)
	}
	for _, run := range []engine.Config{{Workers: 1}, {Workers: 2}, {Workers: 7}, {Workers: 3, Lanes: 8}} {
		got, err := EvaluateLeakageOpt(NaiveXor(), cfg, EvalOptions{Traces: 300, Seed: 11, Config: run})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.MaxCorr) != math.Float64bits(want.MaxCorr) ||
			math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) {
			t.Errorf("workers=%d lanes=%d: MaxCorr %v / conf %v, want %v / %v",
				run.Workers, run.Lanes, got.MaxCorr, got.Confidence, want.MaxCorr, want.Confidence)
		}
	}
}

// The gadget evaluator's results are pinned bit for bit — recorded
// from the per-trace simulation driver it replaced — and its runs must
// really batch after the verification window.
func TestEvaluateLeakagePinned(t *testing.T) {
	pins := []struct {
		g          Gadget
		corr, conf uint64
	}{
		{NaiveXor(), 0x3fe2fe6453e5a93d, 0x3ff0000000000000},
		{SeparatedXor(), 0xbfb0e6338b6257eb, 0x3fef4a45988cb872},
		{DualIssueXor(), 0x3fb4140954b4f87c, 0x3fefca605ac5a3e8},
	}
	for _, p := range pins {
		res, err := EvaluateLeakage(p.g, pipeline.DefaultConfig(), 1200, 7)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.MaxCorr) != p.corr || math.Float64bits(res.Confidence) != p.conf {
			t.Errorf("%s: MaxCorr %#x conf %#x, want %#x %#x", p.g.Name,
				math.Float64bits(res.MaxCorr), math.Float64bits(res.Confidence), p.corr, p.conf)
		}
		if res.BatchRuns == 0 || res.FallbackReason != "" {
			t.Errorf("%s: %d batch runs, fallback %q", p.g.Name, res.BatchRuns, res.FallbackReason)
		}
	}
}

// The keyed evaluator's result is independent of the synthesis path:
// simulate, auto and replay agree bit for bit on fixed, shuffled and
// jittered scenarios, and auto and replay really run every program
// variant on the batch VM — a silent slide onto the simulator fails
// here rather than only showing up as a slower campaign. The sixteen
// program variants of shuffle+jitter are checked at 800 traces, inside
// the run's serialized verification prefix (VerifyRuns per variant, so
// auto mode only verifies there), and at 2000, past it.
func TestEvaluateKeyedCPAModesAgree(t *testing.T) {
	cases := []struct {
		sched, ctr   string
		order, lanes int
		traces       int
		autoBatches  bool
	}{
		{ScheduleSbox, "mask", 2, 0, 600, true},
		{ScheduleNaive, "mask+shuffle", 1, 8, 600, true},
		{ScheduleSbox, "mask+jitter", 1, 64, 600, true},
		{ScheduleNaive, "mask+shuffle+jitter", 1, 8, 800, false},
		{ScheduleSeparated, "mask+shuffle+jitter", 1, 0, 2000, true},
	}
	for _, c := range cases {
		opt := keyedOpt(c.sched, c.ctr, c.order, c.traces)
		opt.Lanes = c.lanes
		opt.Synth = engine.ModeSimulate
		want, err := EvaluateKeyedCPA(opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []engine.Mode{engine.ModeAuto, engine.ModeReplay} {
			opt.Synth = mode
			got, err := EvaluateKeyedCPA(opt)
			if err != nil {
				t.Fatalf("%s/%s %v: %v", c.sched, c.ctr, mode, err)
			}
			if math.Float64bits(got.BestCorr) != math.Float64bits(want.BestCorr) ||
				math.Float64bits(got.TrueCorr) != math.Float64bits(want.TrueCorr) ||
				math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) ||
				got.Recovered != want.Recovered || got.Rank != want.Rank ||
				got.Samples != want.Samples || got.Pairs != want.Pairs {
				t.Errorf("%s/%s order %d %v: result differs from simulation", c.sched, c.ctr, c.order, mode)
			}
			batches := mode == engine.ModeReplay || c.autoBatches
			if got.FallbackReason != "" || (batches && slices.Contains(got.BatchRuns, 0)) {
				t.Errorf("%s/%s %v: batch runs per variant %v, fallback %q",
					c.sched, c.ctr, mode, got.BatchRuns, got.FallbackReason)
			}
		}
	}
}

func TestParseCountermeasure(t *testing.T) {
	cases := []struct {
		in   string
		want Countermeasure
	}{
		{"none", Countermeasure{}},
		{"", Countermeasure{}},
		{"mask", Countermeasure{Mask: true}},
		{"mask+shuffle", Countermeasure{Mask: true, Shuffle: true}},
		{"mask+jitter", Countermeasure{Mask: true, Jitter: true}},
		{"mask+shuffle+jitter", Countermeasure{Mask: true, Shuffle: true, Jitter: true}},
	}
	for _, c := range cases {
		got, err := ParseCountermeasure(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("%q: got %+v", c.in, got)
		}
		if c.in != "" && got.String() != c.in {
			t.Errorf("%q: round-trips to %q", c.in, got.String())
		}
	}
	if _, err := ParseCountermeasure("mask+rowhammer"); err == nil {
		t.Error("unknown countermeasure must be rejected")
	}
}

func keyedOpt(sched, ctr string, order, traces int) KeyedOptions {
	c, err := ParseCountermeasure(ctr)
	if err != nil {
		panic(err)
	}
	opt := DefaultKeyedOptions()
	opt.Schedule, opt.Ctr, opt.Order, opt.Traces = sched, c, order, traces
	opt.Key = 0x2B
	opt.Seed = 5
	return opt
}

// The keyed evaluator carries the engine's worker-invariance contract:
// order-2 runs the engine twice, and both passes must see identical
// per-trace streams for any worker count.
func TestEvaluateKeyedCPAWorkerInvariance(t *testing.T) {
	opt := keyedOpt(ScheduleSbox, "mask+jitter", 2, 200)
	opt.Workers = 1
	want, err := EvaluateKeyedCPA(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7} {
		opt.Workers = workers
		got, err := EvaluateKeyedCPA(opt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.BestCorr) != math.Float64bits(want.BestCorr) ||
			math.Float64bits(got.TrueCorr) != math.Float64bits(want.TrueCorr) ||
			got.Recovered != want.Recovered || got.Rank != want.Rank {
			t.Errorf("workers=%d: result differs from single-worker reference", workers)
		}
	}
}

// The §4.2 dichotomy at small trace budgets: the back-to-back schedule
// breaks the masking at first order, the separated and dual-issued
// schedules do not — until either the combining order rises to two or
// the dual-issued binary runs on a scalar core.
func TestKeyedCPADichotomy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario CPA sweep")
	}
	naive, err := EvaluateKeyedCPA(keyedOpt(ScheduleNaive, "mask", 1, 800))
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Success {
		t.Errorf("naive schedule must break the masking at first order (rank %d)", naive.Rank)
	}
	dual1, err := EvaluateKeyedCPA(keyedOpt(ScheduleDualIssue, "mask", 1, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if dual1.Success {
		t.Error("dual-issued schedule must resist first-order CPA")
	}
	dual2, err := EvaluateKeyedCPA(keyedOpt(ScheduleDualIssue, "mask", 2, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if !dual2.Success {
		t.Errorf("second-order CPA must break the first-order masking (rank %d)", dual2.Rank)
	}
	scalarOpt := keyedOpt(ScheduleDualIssue, "mask", 1, 2000)
	scalarOpt.Core = pipeline.ScalarConfig()
	scalar, err := EvaluateKeyedCPA(scalarOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !scalar.Success {
		t.Errorf("the same binary on a scalar core must recombine the shares (rank %d)", scalar.Rank)
	}
}

func TestEvaluateKeyedCPAValidation(t *testing.T) {
	opt := keyedOpt(ScheduleSbox, "mask", 1, 100)
	opt.Traces = 2
	if _, err := EvaluateKeyedCPA(opt); err == nil {
		t.Error("too few traces must be rejected")
	}
	opt = keyedOpt(ScheduleSbox, "mask", 3, 100)
	if _, err := EvaluateKeyedCPA(opt); err == nil {
		t.Error("order 3 must be rejected")
	}
	opt = keyedOpt("rot13", "mask", 1, 100)
	if _, err := EvaluateKeyedCPA(opt); err == nil {
		t.Error("unknown schedule must be rejected")
	}
	opt = keyedOpt(ScheduleSbox, "mask+shuffle", 1, 100)
	if _, err := EvaluateKeyedCPA(opt); err == nil {
		t.Error("shuffle on the lookup gadget must be rejected")
	}
}
