package masking

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/replay"
)

// The keyed evaluator's result is independent of the synthesis path:
// simulate and auto agree bit for bit on fixed, shuffled and jittered
// scenarios, and auto really runs every program variant on the batch
// VM once the serialized verification prefix (VerifyRuns per variant)
// is behind it — a silent slide onto the simulator fails here rather
// than only showing up as a slower campaign. The sixteen program
// variants of shuffle+jitter are checked at 800 traces, inside that
// prefix, where auto mode only verifies, and at 2000, past it; the
// naive schedule's variants, which auto mode never batches here, meet
// the batch VM in TestKeyedVariantsBatchVMMatchesSimulator.
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
		opt.Synth = engine.ModeAuto
		got, err := EvaluateKeyedCPA(opt)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.sched, c.ctr, err)
		}
		if math.Float64bits(got.BestCorr) != math.Float64bits(want.BestCorr) ||
			math.Float64bits(got.TrueCorr) != math.Float64bits(want.TrueCorr) ||
			math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) ||
			got.Recovered != want.Recovered || got.Rank != want.Rank ||
			got.Samples != want.Samples || got.Pairs != want.Pairs {
			t.Errorf("%s/%s order %d: result differs from simulation", c.sched, c.ctr, c.order)
		}
		if got.FallbackReason != "" || (c.autoBatches && slices.Contains(got.BatchRuns, 0)) {
			t.Errorf("%s/%s: batch runs per variant %v, fallback %q",
				c.sched, c.ctr, got.BatchRuns, got.FallbackReason)
		}
	}
}

// TestKeyedVariantsBatchVMMatchesSimulator runs every program variant
// of the naive schedule under shuffle+jitter on the batch VM, over a
// full lane group of random masked shares, and requires each lane's
// cycle powers and registers to equal its simulation bit for bit.
func TestKeyedVariantsBatchVMMatchesSimulator(t *testing.T) {
	c, err := ParseCountermeasure("mask+shuffle+jitter")
	if err != nil {
		t.Fatal(err)
	}
	kv, err := buildKeyedVariants(ScheduleNaive, c)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	m := power.DefaultModel()
	rng := rand.New(rand.NewSource(3))
	for v, prog := range kv.progs {
		cores := make([]*pipeline.Core, replay.MaxLanes)
		for lane := range cores {
			cores[lane] = pipeline.MustNew(cfg, nil)
			cores[lane].SetRegs(uint32(rng.Intn(256)), uint32(rng.Intn(256)), uint32(rng.Intn(256)), uint32(rng.Intn(256)))
		}
		ref := pipeline.MustNew(cfg, nil)
		ref.SetRegs(cores[0].Reg(isa.R0), cores[0].Reg(isa.R1), cores[0].Reg(isa.R2), cores[0].Reg(isa.R3))
		p, err := replay.Compile(ref, prog)
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		bp, err := replay.CompileBatch(p)
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		vm, err := replay.NewBatchVM(bp, len(cores))
		if err != nil {
			t.Fatal(err)
		}
		vm.SetWeights(&m.HDWeights, &m.HWWeights, m.Baseline)
		want := make([][]float64, len(cores))
		regs := make([][16]uint32, len(cores))
		for lane, core := range cores {
			sim := pipeline.MustNew(cfg, nil)
			sim.SetRegs(core.Reg(isa.R0), core.Reg(isa.R1), core.Reg(isa.R2), core.Reg(isa.R3))
			res, err := sim.Run(prog)
			if err != nil {
				t.Fatal(err)
			}
			want[lane] = m.CyclePowers(nil, res.Timeline)
			regs[lane] = res.Regs
		}
		if err := vm.Run(cores); err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		for lane, core := range cores {
			got := vm.Power(lane)
			if len(got) != len(want[lane]) {
				t.Fatalf("variant %d lane %d: %d cycles, want %d", v, lane, len(got), len(want[lane]))
			}
			for cy := range got {
				if math.Float64bits(got[cy]) != math.Float64bits(want[lane][cy]) {
					t.Fatalf("variant %d lane %d cycle %d: %v, want %v", v, lane, cy, got[cy], want[lane][cy])
				}
			}
			if core.State().Regs != regs[lane] {
				t.Fatalf("variant %d lane %d: registers differ from simulation", v, lane)
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
// the order-2 bank, centered on the run's own mean trace, must fold to
// the same bits for any worker count.
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
	for _, avg := range []int{0, -3} {
		opt = keyedOpt(ScheduleSbox, "mask", 1, 100)
		opt.Averages = avg
		if _, err := EvaluateKeyedCPA(opt); err == nil {
			t.Errorf("averages %d must be rejected, not defaulted", avg)
		}
	}
}
