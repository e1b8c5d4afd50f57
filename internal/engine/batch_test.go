package engine

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/sca"
	"repro/internal/trace"
)

// batchFixture is a miniature attack over a replayable program: one
// register drawn per trace, a two-hypothesis bank keyed on its parity.
type batchFixture struct {
	prog *isa.Program
	cfg  pipeline.Config
	m    power.Model
	spec Spec
}

func newBatchFixture(traces int) *batchFixture {
	f := &batchFixture{
		prog: isa.MustAssemble("add r0, r1, r2\nstr r0, [r8]\neor r3, r0, r1\nnop"),
		cfg:  pipeline.DefaultConfig(),
		m:    power.DefaultModel(),
	}
	f.m.SamplesPerCycle = 2
	cal := pipeline.MustNew(f.cfg, nil)
	res, err := cal.Run(f.prog)
	if err != nil {
		panic(err)
	}
	f.spec = Spec{
		Traces:  traces,
		Samples: len(res.Timeline) * f.m.SamplesPerCycle,
		Banks:   HypothesisBanks(2),
		Seed:    7,
	}
	return f
}

func (f *batchFixture) initCore(core *pipeline.Core, v uint32) {
	core.SetRegs(0, v, 0x5A5A5A5A)
	core.SetReg(isa.R8, 0x100)
}

func (f *batchFixture) hyps(v uint32, hyps []float64) {
	hyps[0] = float64(v & 1)
	hyps[1] = 1 - float64(v&1)
}

// scalar is the per-trace reference generator for Run: each trace
// simulated on its own and synthesized from its timeline.
func (f *batchFixture) scalar(t *testing.T) Generate {
	t.Helper()
	synth, err := NewSynthesizer(ModeSimulate, f.cfg, f.prog)
	if err != nil {
		t.Fatal(err)
	}
	return func(i int, rng *rand.Rand, s *Sample) error {
		v := rng.Uint32()
		return synth.Run(
			func(core *pipeline.Core) { f.initCore(core, v) },
			func(tl pipeline.Timeline, core *pipeline.Core) error {
				s.Trace, s.Scratch = f.m.SynthesizeAveragedInto(s.Trace, s.Scratch, tl, rng, 2)
				f.hyps(v, s.Hyps[0])
				return nil
			})
	}
}

// gen builds the batch generator over a fresh Synthesizer of the given
// mode, in the per-lane Acquire form; genFused swaps in the fused
// block expansion.
func (f *batchFixture) gen(t *testing.T, mode Mode, lanes int) (BatchGen, *Synthesizer) {
	t.Helper()
	synth, err := NewSynthesizer(mode, f.cfg, f.prog)
	if err != nil {
		t.Fatal(err)
	}
	return BatchGen{
		Synth: synth,
		Model: &f.m,
		Lanes: lanes,
		Prepare: func(i int, rng *rand.Rand, core *pipeline.Core, s *Sample) error {
			v := rng.Uint32()
			f.initCore(core, v)
			f.hyps(v, s.Hyps[0])
			return nil
		},
		Acquire: func(i int, rng *rand.Rand, cycles []float64, s *Sample) error {
			s.Trace, s.Scratch = f.m.AveragedCyclesInto(s.Trace, s.Scratch, cycles, rng, 2)
			return nil
		},
	}, synth
}

// genFused is gen with the fused block expansion in place of the
// per-lane Acquire: the engine expands the whole lane block itself,
// drawing each trace's noise in bulk.
func (f *batchFixture) genFused(t *testing.T, mode Mode, lanes int) (BatchGen, *Synthesizer) {
	t.Helper()
	bg, synth := f.gen(t, mode, lanes)
	bg.Averages = 2
	bg.Acquire = nil
	return bg, synth
}

// TestRunBatchedBitIdenticalToScalar is the engine-level lane sweep:
// for every lane width (the default, the single-lane degenerate batch,
// widths that do not divide the chunk size, the widths beyond the old
// 32-lane mask word — 33, 48 — and the 64-lane maximum), any worker
// count and chunk size, and on both the per-lane Acquire form and the
// fused block expansion, the global accumulators must be bit-identical
// to a per-trace simulation through Run.
func TestRunBatchedBitIdenticalToScalar(t *testing.T) {
	f := newBatchFixture(333)
	ref, err := Run(Config{Workers: 1}, f.spec, f.scalar(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ lanes, workers, chunk int }{
		{0, 1, 0}, {1, 1, 0}, {8, 2, 0}, {16, 4, 32}, {32, 3, 48}, {24, 2, 50}, {5, 1, 7},
		{33, 2, 50}, {48, 3, 0}, {64, 2, 96}, {64, 1, 70},
	} {
		for _, fused := range []bool{false, true} {
			var bg BatchGen
			var synth *Synthesizer
			if fused {
				bg, synth = f.genFused(t, ModeAuto, tc.lanes)
			} else {
				bg, synth = f.gen(t, ModeAuto, tc.lanes)
			}
			got, err := RunBatched(Config{Workers: tc.workers, ChunkSize: tc.chunk}, f.spec, bg)
			if err != nil {
				t.Fatalf("lanes=%d workers=%d fused=%v: %v", tc.lanes, tc.workers, fused, err)
			}
			if !got[0].(*sca.CPA).Equal(ref[0].(*sca.CPA)) {
				t.Fatalf("lanes=%d workers=%d chunk=%d fused=%v: accumulator differs from scalar path",
					tc.lanes, tc.workers, tc.chunk, fused)
			}
			if synth.BatchRuns() == 0 {
				t.Fatalf("lanes=%d fused=%v: batch path never ran", tc.lanes, fused)
			}
			if reason := synth.BatchDisabledReason(); reason != "" {
				t.Fatalf("lanes=%d fused=%v: batch disabled: %s", tc.lanes, fused, reason)
			}
		}
	}
}

// TestRunBatchedVerifyWindowStaysScalar pins the window guard: the
// batch path must not run before the auto-mode verification window
// completed, so a run of exactly one verification window never
// batches — and every one of its traces is checked.
func TestRunBatchedVerifyWindowStaysScalar(t *testing.T) {
	f := newBatchFixture(VerifyRuns)
	f.spec.Traces = VerifyRuns
	bg, synth := f.gen(t, ModeAuto, 8)
	if _, err := RunBatched(Config{Workers: 1}, f.spec, bg); err != nil {
		t.Fatal(err)
	}
	if synth.BatchRuns() != 0 {
		t.Fatalf("batch ran %d times inside the verification window", synth.BatchRuns())
	}
	if synth.checked != VerifyRuns || !synth.settled.Load() || synth.FellBack() {
		t.Fatalf("%d of %d runs verified (settled %v, fallback %q)",
			synth.checked, VerifyRuns, synth.settled.Load(), synth.FallbackReason())
	}
}

// TestRunBatchedSimulateNeverBatches pins ModeSimulate: the batch path
// must stay off entirely.
func TestRunBatchedSimulateNeverBatches(t *testing.T) {
	f := newBatchFixture(100)
	bg, synth := f.gen(t, ModeSimulate, 8)
	if _, err := RunBatched(Config{Workers: 2}, f.spec, bg); err != nil {
		t.Fatal(err)
	}
	if synth.BatchRuns() != 0 {
		t.Fatal("batch path ran under ModeSimulate")
	}
}

// divergeFixture builds a program with a pinned conditional whose
// outcome flips on one designated trace, so the batch path hits a
// mid-run divergence after the verification window passed.
type divergeFixture struct {
	prog *isa.Program
	cfg  pipeline.Config
	m    power.Model
	spec Spec
	bad  int
}

func newDivergeFixture(traces, bad int) *divergeFixture {
	f := &divergeFixture{
		// cmp + conditional store: pinned (memory conditional). The
		// reference and all conforming traces pass the condition.
		prog: isa.MustAssemble("cmp r0, #0\nstreq r1, [r8]\nadd r2, r1, r1"),
		cfg:  pipeline.DefaultConfig(),
		m:    power.DefaultModel(),
		bad:  bad,
	}
	f.m.SamplesPerCycle = 2
	cal := pipeline.MustNew(f.cfg, nil)
	cal.SetReg(isa.R8, 0x100)
	res, err := cal.Run(f.prog)
	if err != nil {
		panic(err)
	}
	f.spec = Spec{
		Traces:  traces,
		Samples: len(res.Timeline) * f.m.SamplesPerCycle,
		Banks:   HypothesisBanks(2),
		Seed:    3,
	}
	return f
}

func (f *divergeFixture) gen(t *testing.T, mode Mode, lanes int) (BatchGen, *Synthesizer) {
	t.Helper()
	synth, err := NewSynthesizer(mode, f.cfg, f.prog)
	if err != nil {
		t.Fatal(err)
	}
	initCore := func(core *pipeline.Core, i int, v uint32) {
		var r0 uint32
		if i == f.bad {
			r0 = 1 // condition fails: leaves the compiled schedule
		}
		core.SetReg(isa.R0, r0)
		core.SetReg(isa.R1, v)
		core.SetReg(isa.R8, 0x100)
	}
	return BatchGen{
		Synth: synth,
		Model: &f.m,
		Lanes: lanes,
		Prepare: func(i int, rng *rand.Rand, core *pipeline.Core, s *Sample) error {
			v := rng.Uint32()
			initCore(core, i, v)
			s.Hyps[0][0] = float64(v & 1)
			s.Hyps[0][1] = 1 - float64(v&1)
			return nil
		},
		Acquire: func(i int, rng *rand.Rand, cycles []float64, s *Sample) error {
			s.Trace, s.Scratch = f.m.AveragedCyclesInto(s.Trace, s.Scratch, cycles, rng, 1)
			return nil
		},
	}, synth
}

// TestRunBatchedDivergenceFallsBackToSimulation forces a divergence
// after the verification window: the diverging group must be
// re-initialized and simulated, and the final accumulators must equal
// a pure-simulation run bit for bit.
func TestRunBatchedDivergenceFallsBackToSimulation(t *testing.T) {
	const traces, bad = 160, 130 // bad lands in a post-window batch
	sim := newDivergeFixture(traces, bad)
	simGen, _ := sim.gen(t, ModeSimulate, 0)
	want, err := RunBatched(Config{Workers: 1}, sim.spec, simGen)
	if err != nil {
		t.Fatal(err)
	}
	// Lane widths on both sides of the old 32-lane mask word: divergence
	// detection and fallback parity must be width-independent.
	for _, lanes := range []int{8, 48, 64} {
		f := newDivergeFixture(traces, bad)
		bg, synth := f.gen(t, ModeAuto, lanes)
		got, err := RunBatched(Config{Workers: 1}, f.spec, bg)
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		if synth.BatchRuns() == 0 {
			t.Fatalf("lanes=%d: batch path never ran before the divergence", lanes)
		}
		if !synth.FellBack() {
			t.Fatalf("lanes=%d: auto mode did not fall back on the diverging trace", lanes)
		}
		if !got[0].(*sca.CPA).Equal(want[0].(*sca.CPA)) {
			t.Fatalf("lanes=%d: diverging run differs from pure simulation", lanes)
		}
	}
}

// TestStreamBatchedBitIdenticalToSimulate pins the trace-set producer:
// auto-mode streams at every lane width must emit the byte sequence of
// a pure-simulation stream, traces in order, partial final batches
// included.
func TestStreamBatchedBitIdenticalToSimulate(t *testing.T) {
	f := newBatchFixture(0)
	const n = 107
	mk := func(mode Mode, lanes int) ([]trace.Trace, [][]byte) {
		synth, err := NewSynthesizer(mode, f.cfg, f.prog)
		if err != nil {
			t.Fatal(err)
		}
		bs := BatchStream{
			Synth: synth,
			Model: &f.m,
			Lanes: lanes,
			Prepare: func(i int, rng *rand.Rand, core *pipeline.Core) ([]byte, error) {
				v := rng.Uint32()
				f.initCore(core, v)
				return []byte{byte(v)}, nil
			},
			Acquire: func(i int, rng *rand.Rand, cycles []float64, core *pipeline.Core, aux []byte) (trace.Trace, error) {
				return f.m.ExpandCycles(cycles, rng), nil
			},
		}
		var traces []trace.Trace
		var auxes [][]byte
		err = StreamBatched(Config{Workers: 2}, n, 5, bs, func(i int, tr trace.Trace, aux []byte) error {
			traces = append(traces, append(trace.Trace(nil), tr...))
			auxes = append(auxes, append([]byte(nil), aux...))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return traces, auxes
	}
	refT, refA := mk(ModeSimulate, 0)
	for _, lanes := range []int{0, 1, 16, 33, 64} {
		gotT, gotA := mk(ModeAuto, lanes)
		for i := range refT {
			if len(gotT[i]) != len(refT[i]) {
				t.Fatalf("lanes=%d trace %d: length %d vs %d", lanes, i, len(gotT[i]), len(refT[i]))
			}
			for s := range refT[i] {
				if math.Float64bits(gotT[i][s]) != math.Float64bits(refT[i][s]) {
					t.Fatalf("lanes=%d trace %d sample %d differs", lanes, i, s)
				}
			}
			if string(gotA[i]) != string(refA[i]) {
				t.Fatalf("lanes=%d trace %d aux differs", lanes, i)
			}
		}
	}
}

// TestRunBatchedValidation rejects misconfigured batch generators.
func TestRunBatchedValidation(t *testing.T) {
	f := newBatchFixture(10)
	if _, err := RunBatched(Config{}, f.spec, BatchGen{}); err == nil {
		t.Error("incomplete generator accepted")
	}
	for _, lanes := range []int{-1, 65} {
		bg, _ := f.gen(t, ModeAuto, lanes)
		if _, err := RunBatched(Config{}, f.spec, bg); err == nil {
			t.Errorf("lane width %d accepted", lanes)
		}
	}
	// A Prepare error on a batched trace (99 lies in the first
	// post-window chunk) is a genuine failure, not a fallback.
	var errBoom = errors.New("boom")
	f2 := newBatchFixture(160)
	bg2, _ := f2.gen(t, ModeAuto, 8)
	prepare := bg2.Prepare
	bg2.Prepare = func(i int, rng *rand.Rand, core *pipeline.Core, s *Sample) error {
		if i == 99 {
			return errBoom
		}
		return prepare(i, rng, core, s)
	}
	if _, err := RunBatched(Config{Workers: 1}, f2.spec, bg2); !errors.Is(err, errBoom) {
		t.Errorf("prepare error not propagated: %v", err)
	}
}

// TestRunBatchedSteadyStateAllocs is the allocation regression for the
// fused batch path: once the pools are warm, a steady-state chunk —
// lane-group execution, fused block expansion, batched noise and
// class accumulation — must allocate nothing. Measured as the
// allocation delta between runs differing only in chunk count, so the
// per-run fixed costs (accumulators, goroutines, chunk list) cancel.
func TestRunBatchedSteadyStateAllocs(t *testing.T) {
	const chunk = DefaultChunkSize
	measure := func(extra int) float64 {
		f := newBatchFixture(VerifyRuns + extra*chunk)
		bg, _ := f.genFused(t, ModeAuto, 0)
		run := func() {
			if _, err := RunBatched(Config{Workers: 1}, f.spec, bg); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the buffer pools and the synthesizer's verify window
		return testing.AllocsPerRun(3, run)
	}
	base := measure(4)
	wide := measure(24)
	if perChunk := (wide - base) / 20; perChunk > 0.5 {
		t.Errorf("fused batch path allocates %.2f per steady-state chunk (%.0f at 4 extra chunks, %.0f at 24)",
			perChunk, base, wide)
	}
}

// coldFixture is a generator whose every trace starts from a cold cache
// hierarchy, so the simulated timing differs from the compiled
// schedule and verification must fail on the first trace.
func coldFixture(t *testing.T, traces int) (BatchGen, *Synthesizer, Spec) {
	t.Helper()
	prog := isa.MustAssemble("ldr r0, [r8]\nadd r1, r0, r2\nldr r3, [r9]\nstr r1, [r9]")
	cfg := pipeline.DefaultConfig()
	m := power.DefaultModel()
	initCore := func(core *pipeline.Core, v uint32) {
		core.SetHierarchy(mem.DefaultHierarchy())
		core.SetReg(isa.R8, 0x100)
		core.SetReg(isa.R9, 0x400)
		core.Mem().Write32(0x100, v)
	}
	cal := pipeline.MustNew(cfg, nil)
	initCore(cal, 0)
	res, err := cal.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	synth, err := NewSynthesizer(ModeAuto, cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Traces: traces, Samples: len(res.Timeline) * m.SamplesPerCycle, Banks: HypothesisBanks(2), Seed: 11}
	return BatchGen{
		Synth:    synth,
		Model:    &m,
		Averages: 1,
		Prepare: func(i int, rng *rand.Rand, core *pipeline.Core, s *Sample) error {
			v := rng.Uint32()
			initCore(core, v)
			s.Hyps[0][0], s.Hyps[0][1] = float64(v&1), float64(v>>1&1)
			return nil
		},
	}, synth, spec
}

// TestRunBatchedPathDeterministic pins the path a run takes to its
// inputs: which traces are verified, the verdict, Batched and the
// fallback reason — and the accumulators — are the same for every
// worker count, chunk size and checkpoint split, on a replayable
// schedule, one diverging after the window, and one failing
// verification.
func TestRunBatchedPathDeterministic(t *testing.T) {
	type path struct {
		checked           int
		fellBack, batched bool
		reason            string
	}
	const traces = 200
	cases := map[string]func() (BatchGen, *Synthesizer, Spec){
		"replayable": func() (BatchGen, *Synthesizer, Spec) {
			f := newBatchFixture(traces)
			bg, s := f.genFused(t, ModeAuto, 0)
			return bg, s, f.spec
		},
		"late-divergence": func() (BatchGen, *Synthesizer, Spec) {
			f := newDivergeFixture(traces, 130)
			bg, s := f.gen(t, ModeAuto, 0)
			return bg, s, f.spec
		},
		"cold-caches": func() (BatchGen, *Synthesizer, Spec) { return coldFixture(t, traces) },
	}
	for name, mk := range cases {
		var ref *path
		var refAcc *sca.CPA
		for _, workers := range []int{1, 2, 8} {
			for _, chunk := range []int{16, 64, 100} {
				for _, ckpt := range [][]int{nil, {10}} {
					bg, s, spec := mk()
					spec.Checkpoints = ckpt
					acc, err := RunBatched(Config{Workers: workers, ChunkSize: chunk}, spec, bg)
					if err != nil {
						t.Fatalf("%s workers=%d chunk=%d: %v", name, workers, chunk, err)
					}
					got := &path{s.checked, s.FellBack(), s.BatchRuns() > 0, s.FallbackReason()}
					if ref == nil {
						ref, refAcc = got, acc[0].(*sca.CPA)
						t.Logf("%s: %+v", name, *got)
						continue
					}
					if *got != *ref {
						t.Fatalf("%s workers=%d chunk=%d ckpt=%v: path %+v, want %+v",
							name, workers, chunk, ckpt, *got, *ref)
					}
					if !acc[0].(*sca.CPA).Equal(refAcc) {
						t.Fatalf("%s workers=%d chunk=%d ckpt=%v: accumulators differ", name, workers, chunk, ckpt)
					}
				}
			}
		}
		switch {
		case name == "replayable" && (ref.checked != VerifyRuns || ref.fellBack || !ref.batched):
			t.Fatalf("%s: path %+v", name, *ref)
		case name == "late-divergence" && (ref.checked != VerifyRuns || !ref.fellBack || !ref.batched):
			t.Fatalf("%s: path %+v", name, *ref)
		case name == "cold-caches" && (ref.checked != 0 || !ref.fellBack || ref.batched):
			t.Fatalf("%s: path %+v", name, *ref)
		}
	}
}

// TestSharedGateAutoRunsFinish runs two auto-mode runs at once through
// one width-1 Gate. Each run's verification window holds back its later
// chunks; that wait happens before a chunk takes a gate slot, so
// neither run can sit on the only slot waiting for the other.
func TestSharedGateAutoRunsFinish(t *testing.T) {
	gate := NewGate(1)
	f := newBatchFixture(300)
	want, err := Run(Config{Workers: 1}, f.spec, f.scalar(t))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	for r := 0; r < 2; r++ {
		bg, _ := f.genFused(t, ModeAuto, 16)
		go func() {
			got, err := RunBatched(Config{Workers: 4, ChunkSize: 16, Gate: gate}, f.spec, bg)
			if err == nil && !got[0].(*sca.CPA).Equal(want[0].(*sca.CPA)) {
				err = errors.New("gated auto run differs from per-trace simulation")
			}
			done <- err
		}()
	}
	timeout := time.After(time.Minute)
	for r := 0; r < 2; r++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("auto-mode runs sharing a width-1 gate did not finish")
		}
	}
}
