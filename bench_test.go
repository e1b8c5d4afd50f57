// Benchmark harness regenerating every table and figure of the paper's
// evaluation, plus ablations of the modelling choices called out in
// DESIGN.md §5. Each experiment prints its paper-style rows once and
// reports shape metrics through the benchmark metric channel.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/aes"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/cpi"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/leakscan"
	"repro/internal/masking"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/replay"
	"repro/internal/sca"
	"repro/internal/target"
	"repro/internal/znorm"
)

var benchKey = [16]byte{0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6, 0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C}

// benchAES builds the registry's AES instance for benchKey on the
// default core.
func benchAES(b *testing.B, rounds, padNops int) target.Instance {
	tgt, err := target.Get("aes")
	if err != nil {
		b.Fatal(err)
	}
	inst, err := tgt.New(pipeline.DefaultConfig(), benchKey[:], rounds, padNops)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

var printOnce sync.Map

func printHeader(name, text string) {
	if _, dup := printOnce.LoadOrStore(name, true); !dup {
		fmt.Printf("\n===== %s =====\n%s\n", name, text)
	}
}

// BenchmarkTable1DualIssueMatrix regenerates the paper's Table 1: the
// 7x7 dual-issue matrix recovered purely from CPI measurements on
// hazard-free vs hazard-laden instruction pairs.
func BenchmarkTable1DualIssueMatrix(b *testing.B) {
	var match, total int
	for i := 0; i < b.N; i++ {
		m, err := cpi.MeasureMatrix(pipeline.DefaultConfig(), 64, nil)
		if err != nil {
			b.Fatal(err)
		}
		match, total = m.Agreement()
		if i == 0 {
			printHeader("Table 1: dual-issue matrix from CPI", m.Table()+
				fmt.Sprintf("agreement with the published Table 1: %d/%d", match, total))
		}
	}
	b.ReportMetric(float64(match), "cells_matching")
	b.ReportMetric(float64(total), "cells_total")
}

// BenchmarkFigure2Inference regenerates the paper's Figure 2: the
// pipeline structure deduced from the CPI matrix and targeted probes.
func BenchmarkFigure2Inference(b *testing.B) {
	matches := 0.0
	for i := 0; i < b.N; i++ {
		cfg := pipeline.DefaultConfig()
		m, err := cpi.MeasureMatrix(cfg, 64, nil)
		if err != nil {
			b.Fatal(err)
		}
		p, err := cpi.MeasureProbes(cfg, 64)
		if err != nil {
			b.Fatal(err)
		}
		inf := cpi.Infer(m, p)
		if ok, _ := inf.MatchesPaper(); ok {
			matches = 1
		}
		if i == 0 {
			printHeader("Figure 2: inferred pipeline structure", inf.String())
		}
	}
	b.ReportMetric(matches, "matches_paper")
}

// BenchmarkTable2LeakageScan regenerates the paper's Table 2: the seven
// leakage micro-benchmarks with per-component power-model verdicts at
// the >99.5% confidence criterion.
func BenchmarkTable2LeakageScan(b *testing.B) {
	var match, total int
	for i := 0; i < b.N; i++ {
		var rs []*leakscan.BenchResult
		for _, row := range leakscan.Benchmarks() {
			r, err := leakscan.RunBenchmark(&row, leakscan.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			rs = append(rs, r)
		}
		match, total = leakscan.Agreement(rs)
		if i == 0 {
			printHeader("Table 2: leakage characterization", leakscan.Report(rs))
		}
	}
	b.ReportMetric(float64(match), "cells_matching")
	b.ReportMetric(float64(total), "cells_total")
}

// BenchmarkFigure3AESCPA regenerates the paper's Figure 3: CPA against
// the bare-metal AES with the HW-of-SubBytes-output model, including the
// primitive-region correlation annotations.
func BenchmarkFigure3AESCPA(b *testing.B) {
	var res *attack.Fig3Result
	for i := 0; i < b.N; i++ {
		opt := attack.DefaultFig3Options()
		opt.Traces = 800
		opt.Rounds = 1
		var err error
		res, err = attack.RunCPA(target.Default, benchKey[:], opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			s := fmt.Sprintf("key byte %d: recovered %#02x (true %#02x), rank %d, confidence %.4f\n",
				res.KeyByte, res.Recovered, res.TrueKey, res.Rank, res.Confidence)
			for _, r := range res.Regions {
				s += fmt.Sprintf("  %-4s round %2d [%6.2f..%6.2f us] peak %+0.3f @ %.2f us\n",
					r.Name, r.Round, r.StartUs, r.EndUs, r.PeakCorr, r.PeakSampleUs)
			}
			printHeader("Figure 3: bare-metal AES CPA", s)
		}
	}
	success := 0.0
	if res.Success() {
		success = 1
	}
	b.ReportMetric(success, "key_recovered")
	b.ReportMetric(float64(res.Rank), "true_key_rank")
}

// BenchmarkFigure4NoisyCPA regenerates the paper's Figure 4: CPA against
// AES under the loaded-Linux environment with the HD-between-consecutive-
// SubBytes-stores model, 100 traces of 16 averaged executions.
func BenchmarkFigure4NoisyCPA(b *testing.B) {
	var res *attack.Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = attack.RunFigure4(benchKey, attack.DefaultFig4Options())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printHeader("Figure 4: loaded-Linux AES CPA", fmt.Sprintf(
				"key byte %d: recovered %#02x (true %#02x), |r| %.3f vs runner-up %.3f, confidence %.4f over %d traces",
				res.KeyByte, res.Recovered, res.TrueKey, res.BestCorr, res.SecondCorr, res.Confidence, res.Traces))
		}
	}
	success := 0.0
	if res.Success() {
		success = 1
	}
	b.ReportMetric(success, "key_recovered")
	b.ReportMetric(res.Confidence, "confidence")
}

// BenchmarkAblationOperandSwap quantifies §4.2 (i)+(ii): how many leakage
// events change when the operands of one commutative instruction swap.
func BenchmarkAblationOperandSwap(b *testing.B) {
	var changed int
	for i := 0; i < b.N; i++ {
		a, err := core.Analyze(isa.MustAssemble("eor r0, r1, r2\neor r3, r4, r5"),
			pipeline.DefaultConfig(), power.DefaultModel(), nil)
		if err != nil {
			b.Fatal(err)
		}
		s, err := core.Analyze(isa.MustAssemble("eor r0, r1, r2\neor r3, r5, r4"),
			pipeline.DefaultConfig(), power.DefaultModel(), nil)
		if err != nil {
			b.Fatal(err)
		}
		onlyA, onlyB := core.Diff(a, s)
		changed = len(onlyA) + len(onlyB)
	}
	b.ReportMetric(float64(changed), "events_changed")
}

// BenchmarkAblationDualIssue measures §4.2 (iii): the dual-issued share
// pair is clean on the A7 model and recombines on a scalar core.
func BenchmarkAblationDualIssue(b *testing.B) {
	var onDual, onScalar int
	for i := 0; i < b.N; i++ {
		v1, err := masking.CheckStatic(masking.ScheduleDualIssue, pipeline.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		v2, err := masking.CheckStatic(masking.ScheduleDualIssue, pipeline.ScalarConfig())
		if err != nil {
			b.Fatal(err)
		}
		onDual, onScalar = len(v1), len(v2)
	}
	printHeader("Ablation: dual issue as countermeasure", fmt.Sprintf(
		"share recombinations: dual-issue core %d, scalar core %d", onDual, onScalar))
	b.ReportMetric(float64(onDual), "violations_dual")
	b.ReportMetric(float64(onScalar), "violations_scalar")
}

// BenchmarkAblationRemanence measures §4.2 (iv): MDR data remanence
// combining a load with a later, unrelated store.
func BenchmarkAblationRemanence(b *testing.B) {
	var events int
	for i := 0; i < b.N; i++ {
		rep, err := core.Analyze(isa.MustAssemble("ldr r0, [r8]\nadd r1, r2, r3\nstr r1, [r9]"),
			pipeline.DefaultConfig(), power.DefaultModel(), func(c *pipeline.Core) {
				c.SetReg(isa.R8, 0x100)
				c.SetReg(isa.R9, 0x200)
			})
		if err != nil {
			b.Fatal(err)
		}
		events = 0
		for _, e := range rep.ByComponent(pipeline.MDR) {
			if e.Kind == core.KindHD && e.A.Role == pipeline.RoleLoadData && e.B.Role == pipeline.RoleStoreData {
				events++
			}
		}
	}
	b.ReportMetric(float64(events), "remanence_events")
}

// BenchmarkAblationNopInsertion measures §4.2's nop observation: inserting
// a semantically neutral nop adds leakage events.
func BenchmarkAblationNopInsertion(b *testing.B) {
	var added int
	for i := 0; i < b.N; i++ {
		plain, err := core.Analyze(isa.MustAssemble("mov r0, r1\nmov r2, r3"),
			pipeline.DefaultConfig(), power.DefaultModel(), nil)
		if err != nil {
			b.Fatal(err)
		}
		nopped, err := core.Analyze(isa.MustAssemble("mov r0, r1\nnop\nmov r2, r3"),
			pipeline.DefaultConfig(), power.DefaultModel(), nil)
		if err != nil {
			b.Fatal(err)
		}
		_, onlyNopped := core.Diff(plain, nopped)
		added = len(onlyNopped)
	}
	b.ReportMetric(float64(added), "events_added_by_nop")
}

// BenchmarkAblationAlignBuffer toggles the LSU align buffer (DESIGN.md
// ablation 3): row 7's cross-word byte combination must disappear.
func BenchmarkAblationAlignBuffer(b *testing.B) {
	detected := func(withBuffer bool) bool {
		opt := leakscan.DefaultOptions()
		opt.Traces = 1500
		opt.Core.AlignBuffer = withBuffer
		bench := leakscan.Benchmarks()[6]
		res, err := leakscan.RunBenchmark(&bench, opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range res.Exprs {
			if e.Column == leakscan.ColAlign {
				return e.Detected
			}
		}
		return false
	}
	var with, without bool
	for i := 0; i < b.N; i++ {
		with = detected(true)
		without = detected(false)
	}
	printHeader("Ablation: align buffer", fmt.Sprintf(
		"rC^rG detected: with buffer %v, without %v", with, without))
	b.ReportMetric(b2f(with), "detected_with_buffer")
	b.ReportMetric(b2f(without), "detected_without_buffer")
}

// BenchmarkAblationShifterWeight verifies the §4.1 magnitude claim: the
// shifter-buffer correlation sits at roughly a tenth of the IS/EX bus
// correlation under the default weights.
func BenchmarkAblationShifterWeight(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		opt := leakscan.DefaultOptions()
		opt.Traces = 4000
		bench := leakscan.Benchmarks()[3] // shifted adds
		res, err := leakscan.RunBenchmark(&bench, opt)
		if err != nil {
			b.Fatal(err)
		}
		var shift, bus float64
		for _, e := range res.Exprs {
			// Use the second instruction's shifted value: the first one's
			// window is border-inflated by the initial zero-state latch
			// transition (a full-weight HW event).
			if e.Column == leakscan.ColShift && e.Name == "rF<<n" {
				shift = e.Peak
			}
			if e.Column == leakscan.ColISEX && e.Name == "rB^rE" {
				bus = e.Peak
			}
		}
		if bus != 0 {
			ratio = abs(shift) / abs(bus)
		}
	}
	printHeader("Ablation: shifter leakage magnitude", fmt.Sprintf(
		"|r_shift| / |r_bus| = %.3f (paper: about 1/10)", ratio))
	b.ReportMetric(ratio, "shift_to_bus_ratio")
}

// BenchmarkAblationAveraging toggles the 16-fold on-scope averaging of
// the Figure 4 acquisition (DESIGN.md ablation 5).
func BenchmarkAblationAveraging(b *testing.B) {
	run := func(avg int) float64 {
		opt := attack.DefaultFig4Options()
		opt.Averages = avg
		res, err := attack.RunFigure4(benchKey, opt)
		if err != nil {
			b.Fatal(err)
		}
		return res.Confidence
	}
	var c1, c16 float64
	for i := 0; i < b.N; i++ {
		c1 = run(1)
		c16 = run(16)
	}
	printHeader("Ablation: acquisition averaging", fmt.Sprintf(
		"distinguishing confidence: avg=1 %.4f, avg=16 %.4f", c1, c16))
	b.ReportMetric(c1, "confidence_avg1")
	b.ReportMetric(c16, "confidence_avg16")
}

// BenchmarkAblationIssuePolicy contrasts the measured Table 1 policy with
// a purely structural pairing rule (DESIGN.md ablation 1): the cells that
// flip are policy decisions, not resource limits.
func BenchmarkAblationIssuePolicy(b *testing.B) {
	var flipped int
	for i := 0; i < b.N; i++ {
		cfg := pipeline.DefaultConfig()
		cfg.StructuralPolicyOnly = true
		m, err := cpi.MeasureMatrix(cfg, 32, nil)
		if err != nil {
			b.Fatal(err)
		}
		match, total := m.Agreement()
		flipped = total - match
	}
	printHeader("Ablation: structural-only issue policy", fmt.Sprintf(
		"%d Table 1 cells are policy decisions rather than structural limits", flipped))
	b.ReportMetric(float64(flipped), "policy_cells")
}

// BenchmarkPipelineSimulation measures raw simulator throughput on the
// full 10-round AES.
func BenchmarkPipelineSimulation(b *testing.B) {
	opts := aes.DefaultProgramOptions()
	tgt := benchAES(b, opts.Rounds, opts.PadNops)
	// One core with reused buffers, reset per run: the loop times the
	// simulator, not core construction.
	c := pipeline.MustNew(pipeline.DefaultConfig(), nil)
	c.SetReuseBuffers(true)
	var pt [16]byte
	b.ResetTimer()
	instrs := 0
	for i := 0; i < b.N; i++ {
		pt[0] = byte(i)
		c.ResetState()
		c.SetHierarchy(nil)
		c.Mem().Wipe()
		tgt.InitCore(c, pt[:])
		res, err := c.Run(tgt.Program())
		if err != nil {
			b.Fatal(err)
		}
		if err := tgt.VerifyOutput(c.Mem(), pt[:]); err != nil {
			b.Fatal(err)
		}
		instrs = res.DynamicInstrs()
	}
	b.ReportMetric(float64(instrs), "instrs/encryption")
}

// BenchmarkPowerSynthesis measures trace synthesis over one AES round.
func BenchmarkPowerSynthesis(b *testing.B) {
	pt := [16]byte{1, 2, 3}
	res, err := target.Run(benchAES(b, 1, 8), pipeline.DefaultConfig(), pt[:])
	if err != nil {
		b.Fatal(err)
	}
	m := power.DefaultModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Synthesize(res.Timeline, nil)
	}
}

// benchEngineCPA10k runs the engine's full 10k-trace streaming CPA —
// the DESIGN.md §6 scaling experiment — against the one-round AES
// target with the given pool size, synthesis mode and lane-group width
// (0: default lanes).
func benchEngineCPA10k(b *testing.B, workers int, mode engine.Mode, lanes int) {
	opt := attack.DefaultFig3Options()
	opt.Traces = 10000
	opt.Rounds = 1
	opt.Averages = 1
	opt.Workers = workers
	opt.Synth = mode
	opt.Lanes = lanes
	var res *attack.Fig3Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = attack.RunCPA(target.Default, benchKey[:], opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(opt.Traces)*float64(b.N)/b.Elapsed().Seconds(), "traces/s")
	b.ReportMetric(b2f(res.Success()), "key_recovered")
	b.ReportMetric(b2f(res.Replayed), "replayed")
	b.ReportMetric(b2f(res.Batched), "batched")
}

// BenchmarkEngineCPA10kSerial is the one-worker full-simulation
// baseline of the 10k-trace streaming CPA — the shape of the attack
// before compiled replay existed. Divide its time by the parallel
// benchmarks' for the scaling factors.
func BenchmarkEngineCPA10kSerial(b *testing.B) { benchEngineCPA10k(b, 1, engine.ModeSimulate, 0) }

// BenchmarkEngineCPA10kSimulate runs the attack with one worker per
// core under full simulation — the modern simulate path, against which
// the replay benchmarks isolate their speedups at equal worker count.
func BenchmarkEngineCPA10kSimulate(b *testing.B) { benchEngineCPA10k(b, 0, engine.ModeSimulate, 0) }

// BenchmarkEngineCPA10kParallel runs the attack with one worker per
// core and the lane-parallel batched replay path (the auto default).
// The result is bit-identical to every other variant — only faster.
func BenchmarkEngineCPA10kParallel(b *testing.B) { benchEngineCPA10k(b, 0, engine.ModeAuto, 0) }

// BenchmarkEngineCPA10kLanes32 / 64 are the explicit-width legs of the
// lane sweep behind the DefaultLanes choice (the default leg above
// covers DefaultLanes itself).
func BenchmarkEngineCPA10kLanes32(b *testing.B) { benchEngineCPA10k(b, 0, engine.ModeAuto, 32) }
func BenchmarkEngineCPA10kLanes64(b *testing.B) { benchEngineCPA10k(b, 0, engine.ModeAuto, 64) }

// BenchmarkBatchVM measures the lane-parallel replay VM with fused
// power synthesis on the one-round AES schedule: one iteration is one
// DefaultLanes-wide batch (so divide ns/op by the lane count for the
// per-trace floor; the reported traces/s does that).
func BenchmarkBatchVM(b *testing.B) {
	tgt := benchAES(b, 1, 8)
	synth, err := engine.NewSynthesizer(engine.ModeAuto, pipeline.DefaultConfig(), tgt.Program())
	if err != nil {
		b.Fatal(err)
	}
	m := power.DefaultModel()
	var pt [16]byte
	init := func(lane int, core *pipeline.Core) error {
		pt[0], pt[1] = byte(lane), byte(lane>>8)
		tgt.InitCore(core, pt[:])
		return nil
	}
	use := func(int, []float64, *pipeline.Core) error { return nil }
	// Warmup: the verification window, the schedule compile and the lane
	// scratch, up to the first batch the VM runs alone, so the timed
	// iterations report the steady state even at -benchtime=1x.
	for synth.BatchRuns() == 0 {
		if err := synth.RunBatch(&m, engine.DefaultLanes, init, use); err != nil {
			b.Fatal(err)
		}
		if synth.FellBack() {
			b.Fatalf("fell back to simulation: %s", synth.FallbackReason())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := synth.RunBatch(&m, engine.DefaultLanes, init, use); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(engine.DefaultLanes)*float64(b.N)/b.Elapsed().Seconds(), "traces/s")
}

// benchNormSource is a SplitMix64-backed power.NormSource for the
// expansion microbenchmark — the same bulk sampler the engine feeds the
// fused path.
type benchNormSource struct{ state uint64 }

func (s *benchNormSource) FillNorm(dst []float64) { znorm.Fill(dst, &s.state) }

// BenchmarkFusedExpand measures the fused block expansion alone: one
// iteration expands a MaxLanes-wide block of one-round-AES cycle powers
// into sample-major noisy trace lanes (batched Gaussian noise included),
// the work RunBatched performs per lane group after the batch VM run.
func BenchmarkFusedExpand(b *testing.B) {
	pt := [16]byte{1, 2, 3}
	res, err := target.Run(benchAES(b, 1, 8), pipeline.DefaultConfig(), pt[:])
	if err != nil {
		b.Fatal(err)
	}
	m := power.DefaultModel()
	cycles := m.CyclePowers(nil, res.Timeline)
	const lanes = replay.MaxLanes
	be := &power.BatchExpand{Lanes: lanes, Avg: 1}
	srcs := make([]*benchNormSource, lanes)
	for lane := 0; lane < lanes; lane++ {
		be.Rows = append(be.Rows, cycles)
		be.Out = append(be.Out, nil)
		srcs[lane] = &benchNormSource{state: uint64(lane)}
		be.Noise = append(be.Noise, srcs[lane])
	}
	m.ExpandCyclesBatch(be) // size the trace buffers outside the timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ExpandCyclesBatch(be)
	}
	b.ReportMetric(float64(lanes)*float64(b.N)/b.Elapsed().Seconds(), "traces/s")
}

// BenchmarkEngineFullKey measures the sixteen-bank streaming recovery of
// the complete first-round key from one shared trace stream, at the
// attack-stream benchmark's shape: 10k one-round traces, no averaging.
func BenchmarkEngineFullKey(b *testing.B) {
	opt := attack.DefaultFig3Options()
	opt.Traces = 10000
	opt.Rounds = 1
	opt.Averages = 1
	var res *attack.KeyRecovery
	for i := 0; i < b.N; i++ {
		var err error
		res, err = attack.RecoverKey(target.Default, benchKey[:], opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.BytesRecovered()), "bytes_recovered")
	b.ReportMetric(float64(opt.Traces)*float64(b.N)/b.Elapsed().Seconds(), "traces/s")
}

// BenchmarkCPAUpdate measures the incremental CPA engine with 256
// hypotheses over a 1000-sample trace.
func BenchmarkCPAUpdate(b *testing.B) {
	cpaEng := sca.MustNewCPA(256, 1000)
	tr := make([]float64, 1000)
	hyp := make([]float64, 256)
	for i := range hyp {
		hyp[i] = float64(i % 9)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr[0] = float64(i)
		if err := cpaEng.Add(tr, hyp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStaticAnalysis measures the leakage-model analyzer on the
// one-round AES program.
func BenchmarkStaticAnalysis(b *testing.B) {
	prog, layout, err := aes.BuildProgram(aes.ProgramOptions{Rounds: 1, PadNops: 8})
	if err != nil {
		b.Fatal(err)
	}
	rk := aes.ExpandKey(benchKey)
	init := func(c *pipeline.Core) {
		c.Mem().WriteBytes(layout.SboxAddr, aes.Sbox[:])
		c.Mem().WriteBytes(layout.KeyAddr, rk[:])
		c.SetReg(isa.R0, layout.StateAddr)
		c.SetReg(isa.R1, layout.KeyAddr)
		c.SetReg(isa.R2, layout.SboxAddr)
		c.SetReg(isa.SP, layout.StackAddr)
	}
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		rep, err := core.Analyze(prog, pipeline.DefaultConfig(), power.DefaultModel(), init)
		if err != nil {
			b.Fatal(err)
		}
		events = len(rep.Events)
	}
	b.ReportMetric(float64(events), "leakage_events")
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
