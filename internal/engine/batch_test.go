package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/osnoise"
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
	return f.scalarEnv(t, osnoise.Quiet())
}

// scalarEnv is scalar under an acquisition environment: a non-quiet one
// acquires every trace through the osnoise stage on its own, drawing
// its Gaussian samples one NormFloat64 at a time.
func (f *batchFixture) scalarEnv(t *testing.T, env osnoise.Environment) Generate {
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
				if env == osnoise.Quiet() {
					s.Trace, _ = f.m.SynthesizeAveragedInto(s.Trace, nil, tl, rng, 2)
				} else {
					s.Trace = env.Expand(s.Trace, f.m.CyclePowers(nil, tl), &f.m, rng, randNorm{rng}, 2, &osnoise.Scratch{})
				}
				f.hyps(v, s.Hyps[0])
				return nil
			})
	}
}

// randNorm is the NormSource view of a rand.Rand: one NormFloat64 per
// draw, the sequence the engine's bulk sources replicate.
type randNorm struct{ *rand.Rand }

func (r randNorm) FillNorm(dst []float64) {
	for i := range dst {
		dst[i] = r.NormFloat64()
	}
}

// gen builds the batch generator over a fresh Synthesizer of the given
// mode: two-fold averaging in the quiet environment.
func (f *batchFixture) gen(t *testing.T, mode Mode) (BatchGen, *Synthesizer) {
	t.Helper()
	synth, err := NewSynthesizer(mode, f.cfg, f.prog)
	if err != nil {
		t.Fatal(err)
	}
	return BatchGen{
		Variants: []*Synthesizer{synth},
		Model:    &f.m,
		Averages: 2,
		Prepare: func(i int, rng *rand.Rand, core *pipeline.Core, s *Sample) error {
			v := rng.Uint32()
			f.initCore(core, v)
			f.hyps(v, s.Hyps[0])
			return nil
		},
	}, synth
}

// TestRunBatchedBitIdenticalToScalar is the engine-level lane sweep:
// for every lane width (the default, the single-lane degenerate batch,
// widths that do not divide the chunk size, the widths beyond the old
// 32-lane mask word — 33, 48 — and the 64-lane maximum), any worker
// count and chunk size, the global accumulators must be bit-identical
// to a per-trace simulation through Run. The loaded-Linux rows run the
// osnoise stage; the second-order rows fold a classic bank over two
// combining windows, against per-trace combining.
func TestRunBatchedBitIdenticalToScalar(t *testing.T) {
	f := newBatchFixture(333)
	plain, err := Run(Config{Workers: 1}, f.spec, f.scalar(t))
	if err != nil {
		t.Fatal(err)
	}
	loaded := osnoise.LoadedLinux()
	loaded.PreemptProb = 0.2 // a few dozen preemptions over the run
	loadedRef, err := Run(Config{Workers: 1}, f.spec, f.scalarEnv(t, loaded))
	if err != nil {
		t.Fatal(err)
	}
	n := f.spec.Samples
	order2 := f.spec
	order2.Banks = []Bank{{Hyps: 2, Order2: &Order2{
		Windows: []sca.Window{{Lo: 1, Hi: n / 3}, {Lo: n / 2, Hi: n}},
	}}}
	order2Ref := serialReference(t, order2, f.scalar(t))
	quiet := osnoise.Quiet()
	for _, tc := range []struct {
		lanes, workers, chunk int
		env                   osnoise.Environment
		order2                bool
	}{
		{0, 1, 0, quiet, false}, {1, 1, 0, quiet, false}, {8, 2, 0, quiet, false},
		{16, 4, 32, quiet, false}, {32, 3, 48, quiet, false}, {24, 2, 50, quiet, false},
		{5, 1, 7, quiet, false}, {33, 2, 50, quiet, false}, {48, 3, 0, quiet, false},
		{64, 2, 96, quiet, false}, {64, 1, 70, quiet, false},
		{0, 1, 0, loaded, false}, {1, 1, 0, loaded, false}, {5, 3, 7, loaded, false}, {64, 2, 96, loaded, false},
		{0, 1, 0, quiet, true}, {1, 2, 0, quiet, true}, {24, 3, 50, quiet, true},
	} {
		spec, want := f.spec, plain
		switch {
		case tc.order2:
			spec, want = order2, order2Ref
		case tc.env != quiet:
			want = loadedRef
		}
		bg, synth := f.gen(t, ModeAuto)
		bg.Env = tc.env
		got, err := RunBatched(Config{Workers: tc.workers, Lanes: tc.lanes, chunkSize: tc.chunk}, spec, bg)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if !got[0].(*sca.CPA).Equal(want[0].(*sca.CPA)) {
			t.Fatalf("%+v: accumulator differs from scalar path", tc)
		}
		if synth.BatchRuns() == 0 {
			t.Fatalf("%+v: batch path never ran", tc)
		}
		if reason := synth.BatchDisabledReason(); reason != "" {
			t.Fatalf("%+v: batch disabled: %s", tc, reason)
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
	bg, synth := f.gen(t, ModeAuto)
	if _, err := RunBatched(Config{Workers: 1, Lanes: 8}, f.spec, bg); err != nil {
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
	bg, synth := f.gen(t, ModeSimulate)
	if _, err := RunBatched(Config{Workers: 2, Lanes: 8}, f.spec, bg); err != nil {
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

func (f *divergeFixture) gen(t *testing.T, mode Mode) (BatchGen, *Synthesizer) {
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
		Variants: []*Synthesizer{synth},
		Model:    &f.m,
		Prepare: func(i int, rng *rand.Rand, core *pipeline.Core, s *Sample) error {
			v := rng.Uint32()
			initCore(core, i, v)
			s.Hyps[0][0] = float64(v & 1)
			s.Hyps[0][1] = 1 - float64(v&1)
			return nil
		},
		Averages: 1,
	}, synth
}

// TestRunBatchedDivergenceFallsBackToSimulation forces a divergence
// after the verification window: the diverging group must be
// re-initialized and simulated, and the final accumulators must equal
// a pure-simulation run bit for bit.
func TestRunBatchedDivergenceFallsBackToSimulation(t *testing.T) {
	const traces, bad = 160, 130 // bad lands in a post-window batch
	sim := newDivergeFixture(traces, bad)
	simGen, _ := sim.gen(t, ModeSimulate)
	want, err := RunBatched(Config{Workers: 1}, sim.spec, simGen)
	if err != nil {
		t.Fatal(err)
	}
	// Lane widths on both sides of the old 32-lane mask word: divergence
	// detection and fallback parity must be width-independent.
	for _, lanes := range []int{8, 48, 64} {
		f := newDivergeFixture(traces, bad)
		bg, synth := f.gen(t, ModeAuto)
		got, err := RunBatched(Config{Workers: 1, Lanes: lanes}, f.spec, bg)
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

// variantFixture picks one of three programs of equal length per
// trace: two replayable ones and a program of two pinned conditional
// stores, on r0 == 0 and on r4 == 0. Variant 2 leaves its schedule at
// the first store on trace bad and at the second on trace bad2 (-1:
// none), so the two give different fallback reasons.
type variantFixture struct {
	progs []*isa.Program
	cfg   pipeline.Config
	m     power.Model
	spec  Spec
	bad   int
	bad2  int
	// pick maps trace i and its first draw d in [0,3) to the trace's
	// variant; nil picks d.
	pick func(i, d int) int
	// avg and env are the acquisition's averaging and environment.
	avg int
	env osnoise.Environment
}

func newVariantFixture(t *testing.T, traces int) *variantFixture {
	t.Helper()
	f := &variantFixture{
		progs: []*isa.Program{
			isa.MustAssemble("add r0, r1, r2\nstr r0, [r8]\neor r3, r0, r1\nnop\nnop"),
			isa.MustAssemble("eor r0, r1, r2\nstr r0, [r8]\nadd r3, r0, r1\nnop\nnop"),
			isa.MustAssemble("cmp r0, #0\nstreq r1, [r8]\ncmp r4, #0\nstreq r3, [r8]\nnop"),
		},
		cfg:  pipeline.DefaultConfig(),
		m:    power.DefaultModel(),
		bad:  -1,
		bad2: -1,
		avg:  2,
	}
	f.m.SamplesPerCycle = 2
	cycles := -1
	for v, prog := range f.progs {
		cal := pipeline.MustNew(f.cfg, nil)
		cal.SetReg(isa.R8, 0x100)
		res, err := cal.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		if cycles >= 0 && len(res.Timeline) != cycles {
			t.Fatalf("variant %d runs %d cycles, want %d", v, len(res.Timeline), cycles)
		}
		cycles = len(res.Timeline)
	}
	f.spec = Spec{Traces: traces, Samples: cycles * f.m.SamplesPerCycle, Banks: HypothesisBanks(2), Seed: 13}
	return f
}

// variant is the fixture's variant pick, made from the first draw of
// trace i's stream.
func (f *variantFixture) variant(i int, rng *rand.Rand) int {
	d := rng.Intn(3)
	if f.pick == nil {
		return d
	}
	return f.pick(i, d)
}

// nextOfVariant returns the first trace after i that runs variant v,
// -1 if none does.
func (f *variantFixture) nextOfVariant(i, v int) int {
	for j := i + 1; j < f.spec.Traces; j++ {
		if f.variant(j, TraceRNG(f.spec.Seed, j)) == v {
			return j
		}
	}
	return -1
}

// nthOfVariant returns the trace index of the n-th (0-based) execution
// of variant v.
func (f *variantFixture) nthOfVariant(t *testing.T, v, n int) int {
	t.Helper()
	for i := 0; i < f.spec.Traces; i++ {
		if f.variant(i, TraceRNG(f.spec.Seed, i)) == v {
			if n == 0 {
				return i
			}
			n--
		}
	}
	t.Fatalf("variant %d has too few executions", v)
	return -1
}

// windowChecks returns how many executions variant v's verification
// window checks: its first VerifyRuns, or fewer when the run stops
// serializing at trace VerifyRuns*len(progs) (a multiple of the
// default chunk size) before it reached them.
func (f *variantFixture) windowChecks(v int) int {
	n := 0
	for i := 0; i < min(f.spec.Traces, VerifyRuns*len(f.progs)); i++ {
		if f.variant(i, TraceRNG(f.spec.Seed, i)) == v {
			n++
		}
	}
	return min(n, VerifyRuns)
}

func (f *variantFixture) gen(t *testing.T, mode Mode) (BatchGen, []*Synthesizer) {
	t.Helper()
	synths := make([]*Synthesizer, len(f.progs))
	for v, prog := range f.progs {
		var err error
		if synths[v], err = NewSynthesizer(mode, f.cfg, prog); err != nil {
			t.Fatal(err)
		}
	}
	return BatchGen{
		Variants: synths,
		Variant:  f.variant,
		Model:    &f.m,
		Averages: f.avg,
		Env:      f.env,
		Prepare: func(i int, rng *rand.Rand, core *pipeline.Core, s *Sample) error {
			f.variant(i, rng)
			x := rng.Uint32()
			var r0 uint32
			if i == f.bad {
				r0 = 1 // variant 2's first store is annulled: leaves its schedule
			}
			core.SetRegs(r0, x, 0x5A5A5A5A)
			if i == f.bad2 {
				core.SetReg(isa.R4, 1) // the second store is annulled
			}
			core.SetReg(isa.R8, 0x100)
			if s.Hyps[0] == nil { // a class bank
				s.Class[0] = int(x & 1)
				return nil
			}
			s.Hyps[0][0] = float64(x & 1)
			s.Hyps[0][1] = float64(x >> 1 & 1)
			return nil
		},
	}, synths
}

// scalar is the per-trace reference generator for Run: each trace
// simulates its variant's program on its own.
func (f *variantFixture) scalar(t *testing.T) Generate {
	t.Helper()
	bg, synths := f.gen(t, ModeSimulate)
	return func(i int, rng *rand.Rand, s *Sample) error {
		v := f.variant(i, TraceRNG(f.spec.Seed, i)) // Prepare redraws it from rng
		var prepErr error
		err := synths[v].Run(
			func(core *pipeline.Core) { prepErr = bg.Prepare(i, rng, core, s) },
			func(tl pipeline.Timeline, core *pipeline.Core) error {
				if f.env == osnoise.Quiet() {
					s.Trace, _ = f.m.SynthesizeAveragedInto(s.Trace, nil, tl, rng, f.avg)
				} else {
					s.Trace = f.env.Expand(s.Trace, f.m.CyclePowers(nil, tl), &f.m, rng, randNorm{rng}, f.avg, &osnoise.Scratch{})
				}
				return prepErr
			})
		return err
	}
}

// TestRunBatchedVariantGrouping pins the per-variant grouping: a run
// whose traces pick one of three programs must equal pure simulation
// bit for bit at every lane width and worker count, every variant must
// check its own window's executions and batch after it, and each
// variant's path counters must not depend on the worker count. A divergence forced on
// one variant after its window makes that variant fall back while the
// others stay on the batch path.
func TestRunBatchedVariantGrouping(t *testing.T) {
	const traces = 600
	type path struct {
		checked   int
		batchRuns int64
		reason    string
	}
	for _, diverge := range []bool{false, true} {
		f := newVariantFixture(t, traces)
		if diverge {
			f.bad = f.nthOfVariant(t, 2, 150)
		}
		want, err := Run(Config{Workers: 1}, f.spec, f.scalar(t))
		if err != nil {
			t.Fatal(err)
		}
		simGen, _ := f.gen(t, ModeSimulate)
		sim, err := RunBatched(Config{Workers: 3}, f.spec, simGen)
		if err != nil {
			t.Fatal(err)
		}
		if !sim[0].(*sca.CPA).Equal(want[0].(*sca.CPA)) {
			t.Fatalf("diverge=%v: simulate-mode run differs from per-trace simulation", diverge)
		}
		for _, lanes := range []int{1, 8, 64} {
			var ref []path
			for _, workers := range []int{1, 3} {
				bg, synths := f.gen(t, ModeAuto)
				got, err := RunBatched(Config{Workers: workers, Lanes: lanes}, f.spec, bg)
				if err != nil {
					t.Fatalf("diverge=%v lanes=%d workers=%d: %v", diverge, lanes, workers, err)
				}
				if !got[0].(*sca.CPA).Equal(want[0].(*sca.CPA)) {
					t.Fatalf("diverge=%v lanes=%d workers=%d: accumulators differ from per-trace simulation", diverge, lanes, workers)
				}
				paths := make([]path, len(synths))
				for v, s := range synths {
					paths[v] = path{s.checked, s.BatchRuns(), s.FallbackReason()}
					if s.checked != f.windowChecks(v) || s.BatchRuns() == 0 {
						t.Fatalf("diverge=%v lanes=%d variant %d: %+v, want %d checked then batches", diverge, lanes, v, paths[v], f.windowChecks(v))
					}
					if fell := diverge && v == 2; s.FellBack() != fell {
						t.Fatalf("diverge=%v lanes=%d variant %d: fell back %v (%q)", diverge, lanes, v, s.FellBack(), s.FallbackReason())
					}
				}
				if ref == nil {
					ref = paths
					continue
				}
				for v := range paths {
					if paths[v] != ref[v] {
						t.Fatalf("diverge=%v lanes=%d workers=%d variant %d: path %+v, want %+v",
							diverge, lanes, workers, v, paths[v], ref[v])
					}
				}
			}
		}
	}
}

// TestVerifyWindowUnderHeldGate pins the verification window's
// spreading over the run's workers. Two traces of one verification
// group leave variant 2's schedule, at different steps; the fallback
// reason must be the lower trace's, as in a lane-by-lane window. With
// all but one slot of the run's Gate held elsewhere, the chunk's worker
// takes the last one and the window's lanes find none free: the run
// must still finish, one lane at a time, never waiting for a slot. At
// every width the accumulators and each variant's path verdicts equal
// the one-worker run's.
func TestVerifyWindowUnderHeldGate(t *testing.T) {
	f := newVariantFixture(t, 300)
	f.bad = f.nthOfVariant(t, 2, 2)
	f.bad2 = f.nextOfVariant(f.bad, 2)
	if f.bad2 < 0 || f.bad2 >= DefaultChunkSize {
		t.Fatalf("traces %d and %d are not in the first chunk", f.bad, f.bad2)
	}
	type verdict struct {
		replayed, batched bool
		reason            string
	}
	run := func(cfg Config) ([]sca.Accumulator, []verdict, error) {
		bg, synths := f.gen(t, ModeAuto)
		banks, err := RunBatched(cfg, f.spec, bg)
		vs := make([]verdict, len(synths))
		for v, s := range synths {
			vs[v] = verdict{!s.FellBack(), s.BatchRuns() > 0, s.FallbackReason()}
		}
		return banks, vs, err
	}
	want, wantV, err := run(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(wantV[2].reason, "step 1 ") || wantV[2].replayed {
		t.Fatalf("variant 2: %+v, want a fallback at trace %d's first store", wantV[2], f.bad)
	}

	gate := NewGate(4)
	held, release := make(chan struct{}), make(chan struct{})
	go func() {
		for range gate.Width() - 1 {
			gate.acquire(nil)
		}
		close(held)
		<-release
		for range gate.Width() - 1 {
			gate.release()
		}
	}()
	<-held
	defer close(release)
	for _, cfg := range []Config{{Workers: 4}, {Workers: 4, Gate: gate}} {
		type outcome struct {
			banks []sca.Accumulator
			vs    []verdict
			err   error
		}
		done := make(chan outcome, 1)
		go func() {
			banks, vs, err := run(cfg)
			done <- outcome{banks, vs, err}
		}()
		var got outcome
		select {
		case got = <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("gate width %d: run blocked with %d slots held", cfg.Gate.Width(), gate.Width()-1)
		}
		if got.err != nil {
			t.Fatalf("gate width %d: %v", cfg.Gate.Width(), got.err)
		}
		if !accEqual(got.banks[0], want[0]) {
			t.Errorf("gate width %d: accumulators differ from the one-worker run", cfg.Gate.Width())
		}
		if !slices.Equal(got.vs, wantV) {
			t.Errorf("gate width %d: path verdicts %+v, one worker %+v", cfg.Gate.Width(), got.vs, wantV)
		}
	}
}

// TestRunBatchedVariantWindowBound pins the bound on the serialized
// prefix: a run stops serializing at trace VerifyRuns*len(Variants)
// whether or not every window filled. A rare variant that checked some
// executions by then settles on them and batches; one that checked none
// falls back to simulation. Results stay bit-identical to per-trace
// simulation, and the path counters do not depend on the worker count.
func TestRunBatchedVariantWindowBound(t *testing.T) {
	const traces = 600
	bound := VerifyRuns * 3
	cases := []struct {
		name string
		pick func(i, d int) int
		// fellBack: variant 2 checked nothing before the bound.
		fellBack bool
	}{
		// Variant 2 on one in eight of its draws: a few executions
		// before the bound, far fewer than VerifyRuns.
		{"rare", func(i, d int) int {
			if d == 2 && i%8 != 0 {
				return i & 1
			}
			return d
		}, false},
		// Variant 2 only past the bound.
		{"late", func(i, d int) int {
			if d == 2 && i < bound+64 {
				return i & 1
			}
			return d
		}, true},
	}
	type path struct {
		checked   int
		batchRuns int64
		reason    string
	}
	for _, c := range cases {
		f := newVariantFixture(t, traces)
		f.pick = c.pick
		want, err := Run(Config{Workers: 1}, f.spec, f.scalar(t))
		if err != nil {
			t.Fatal(err)
		}
		var ref []path
		for _, workers := range []int{1, 3} {
			bg, synths := f.gen(t, ModeAuto)
			got, err := RunBatched(Config{Workers: workers, Lanes: 8}, f.spec, bg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			if !got[0].(*sca.CPA).Equal(want[0].(*sca.CPA)) {
				t.Fatalf("%s workers=%d: accumulators differ from per-trace simulation", c.name, workers)
			}
			paths := make([]path, len(synths))
			for v, s := range synths {
				paths[v] = path{s.checked, s.BatchRuns(), s.FallbackReason()}
			}
			for v := 0; v < 2; v++ {
				if paths[v].checked != VerifyRuns || paths[v].batchRuns == 0 || paths[v].reason != "" {
					t.Fatalf("%s: variant %d: %+v, want a full window then batches", c.name, v, paths[v])
				}
			}
			rare := paths[2]
			if c.fellBack {
				if rare.checked != 0 || rare.batchRuns != 0 || !strings.Contains(rare.reason, "verification window closed") {
					t.Fatalf("%s: variant 2: %+v, want a fallback with nothing checked", c.name, rare)
				}
			} else if rare.checked == 0 || rare.checked >= VerifyRuns || rare.batchRuns == 0 || rare.reason != "" {
				t.Fatalf("%s: variant 2: %+v, want a partial window then batches", c.name, rare)
			}
			if ref == nil {
				ref = paths
			} else if !slices.Equal(paths, ref) {
				t.Fatalf("%s workers=%d: paths %+v, want %+v", c.name, workers, paths, ref)
			}
		}
	}
}

// TestRunBatchedEmitBitIdenticalToSimulate pins the trace-set producer
// form of RunBatched — no banks, every trace emitted: auto-mode runs at
// every lane width must emit the byte sequence of a pure-simulation
// run, traces in order, partial final batches included.
func TestRunBatchedEmitBitIdenticalToSimulate(t *testing.T) {
	f := newBatchFixture(0)
	const n = 107
	mk := func(mode Mode, lanes int) ([]trace.Trace, [][]byte) {
		synth, err := NewSynthesizer(mode, f.cfg, f.prog)
		if err != nil {
			t.Fatal(err)
		}
		bg := BatchGen{
			Variants: []*Synthesizer{synth},
			Model:    &f.m,
			Averages: 1,
			Prepare: func(i int, rng *rand.Rand, core *pipeline.Core, s *Sample) error {
				v := rng.Uint32()
				f.initCore(core, v)
				s.Aux = append(s.Aux[:0], byte(v))
				return nil
			},
		}
		var traces []trace.Trace
		var auxes [][]byte
		spec := Spec{Traces: n, Samples: f.spec.Samples, Seed: 5, Emit: func(i int, tr trace.Trace, aux []byte) error {
			traces = append(traces, slices.Clone(tr))
			auxes = append(auxes, slices.Clone(aux))
			return nil
		}}
		if _, err := RunBatched(Config{Workers: 2, Lanes: lanes}, spec, bg); err != nil {
			t.Fatal(err)
		}
		return traces, auxes
	}
	refT, refA := mk(ModeSimulate, 0)
	for _, lanes := range []int{0, 1, 16, 33, 64} {
		gotT, gotA := mk(ModeAuto, lanes)
		if len(gotT) != n {
			t.Fatalf("lanes=%d: emitted %d traces, want %d", lanes, len(gotT), n)
		}
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

// TestRunBatchedEmitBesideBanks pins that the sink is a pure observer:
// a run with both banks and Emit folds bit-identical banks to the same
// run without Emit, and emits every trace index exactly once, in order,
// for every worker count and chunk size.
func TestRunBatchedEmitBesideBanks(t *testing.T) {
	f := newBatchFixture(150)
	bg, _ := f.gen(t, ModeAuto)
	want, err := RunBatched(Config{Workers: 1}, f.spec, bg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		for _, chunk := range []int{16, 64} {
			bg, _ := f.gen(t, ModeAuto)
			spec := f.spec
			next := 0
			spec.Emit = func(i int, tr trace.Trace, aux []byte) error {
				if i != next {
					return fmt.Errorf("emitted trace %d, want %d", i, next)
				}
				if len(tr) != spec.Samples {
					return fmt.Errorf("trace %d has %d samples", i, len(tr))
				}
				next++
				return nil
			}
			got, err := RunBatched(Config{Workers: workers, chunkSize: chunk}, spec, bg)
			if err != nil {
				t.Fatalf("workers=%d chunk=%d: %v", workers, chunk, err)
			}
			if next != spec.Traces {
				t.Fatalf("workers=%d chunk=%d: emitted %d traces, want %d", workers, chunk, next, spec.Traces)
			}
			if !got[0].(*sca.CPA).Equal(want[0].(*sca.CPA)) {
				t.Fatalf("workers=%d chunk=%d: banks differ from the run without Emit", workers, chunk)
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
	// A run must fold into banks, emit, or both.
	bgs, _ := f.gen(t, ModeAuto)
	sinkless := f.spec
	sinkless.Banks = nil
	if _, err := RunBatched(Config{}, sinkless, bgs); err == nil {
		t.Error("spec with neither banks nor Emit accepted")
	}
	for _, lanes := range []int{-1, 65} {
		if _, err := RunBatched(Config{Lanes: lanes}, f.spec, bgs); err == nil {
			t.Errorf("lane width %d accepted", lanes)
		}
	}
	// Every variant needs a synthesizer, and the pick must name one.
	bgv, _ := f.gen(t, ModeAuto)
	bgv.Variants = append(bgv.Variants, nil)
	if _, err := RunBatched(Config{}, f.spec, bgv); err == nil {
		t.Error("nil variant synthesizer accepted")
	}
	bgv.Variants = bgv.Variants[:1]
	bgv.Variant = func(int, *rand.Rand) int { return 1 }
	if _, err := RunBatched(Config{}, f.spec, bgv); err == nil {
		t.Error("out-of-range variant accepted")
	}
	// A Prepare error on a batched trace (99 lies in the first
	// post-window chunk) is a genuine failure, not a fallback.
	var errBoom = errors.New("boom")
	f2 := newBatchFixture(160)
	bg2, _ := f2.gen(t, ModeAuto)
	prepare := bg2.Prepare
	bg2.Prepare = func(i int, rng *rand.Rand, core *pipeline.Core, s *Sample) error {
		if i == 99 {
			return errBoom
		}
		return prepare(i, rng, core, s)
	}
	if _, err := RunBatched(Config{Workers: 1, Lanes: 8}, f2.spec, bg2); !errors.Is(err, errBoom) {
		t.Errorf("prepare error not propagated: %v", err)
	}
}

// TestRunBatchedSteadyStateAllocs is the allocation regression for the
// fused batch path: once the pools are warm, a steady-state chunk —
// lane-group execution, fused block expansion, batched noise (whose
// sampler window must stay on the stack, and whose per-trace noise
// scratch is grown once) and class accumulation — must allocate
// nothing. Measured as the allocation delta between runs differing
// only in chunk count, so the per-run fixed costs (accumulators,
// goroutines, chunk list) cancel.
//
// Pool refills do not cancel by themselves. Each run's chunk-buffer
// pool refills once per buffer in flight at a time, which depends on
// scheduling, and a GC cycle empties the synthesizer's scratch pool.
// Without the race detector the test holds GC off and compares runs
// with equal refill counts (poolRefills), so refills cancel like the
// fixed costs. The race detector also makes sync.Pool drop a random
// quarter of the items put back, so under it every chunk may pay for
// refills. There the test fits allocations = fixed + perChunk·chunks +
// a refill cost per pool over many runs; what the refills do not
// explain, perChunk, must stay within the same bound up to the fit's
// noise.
func TestRunBatchedSteadyStateAllocs(t *testing.T) {
	const chunk = DefaultChunkSize
	if !raceEnabled {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun
	}
	newRun := func(extra int) func() {
		f := newBatchFixture(VerifyRuns + extra*chunk)
		bg, _ := f.gen(t, ModeAuto)
		run := func() {
			if _, err := RunBatched(Config{Workers: 1}, f.spec, bg); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the buffer pools and the synthesizer's verify window
		return run
	}
	// measure runs once and reports its allocations and the refills of
	// the chunk-buffer and scratch pools during it.
	measure := func(run func()) (allocs float64, refills [2]int64) {
		var m0, m1 runtime.MemStats
		b0, s0 := poolRefills.batch.Load(), poolRefills.scratch.Load()
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs - m0.Mallocs), [2]int64{poolRefills.batch.Load() - b0, poolRefills.scratch.Load() - s0}
	}
	if !raceEnabled {
		base, wide := newRun(4), newRun(24)
		type runs struct{ allocs, n float64 }
		at4 := map[[2]int64]*runs{}
		at24 := map[[2]int64]*runs{}
		add := func(m map[[2]int64]*runs, run func()) {
			a, r := measure(run)
			if m[r] == nil {
				m[r] = &runs{}
			}
			m[r].allocs += a
			m[r].n++
		}
		for round := 0; round < 8; round++ {
			add(at4, base)
			add(at24, wide)
			if round < 2 {
				continue
			}
			// The refill counts seen most often in both sets of runs.
			var best [2]int64
			matched := 0.0
			for r, b := range at4 {
				if w := at24[r]; w != nil && b.n+w.n > matched {
					best, matched = r, b.n+w.n
				}
			}
			if matched == 0 {
				continue
			}
			b, w := at4[best], at24[best]
			perChunk := (w.allocs/w.n - b.allocs/b.n) / 20
			t.Logf("%.2f allocations per steady-state chunk, over runs with refills %v", perChunk, best)
			if perChunk > 0.5 {
				t.Errorf("fused batch path allocates %.2f per steady-state chunk (%.0f at 4 extra chunks, %.0f at 24, refills %v)",
					perChunk, b.allocs/b.n, w.allocs/w.n, best)
			}
			return
		}
		t.Fatalf("no run at 4 extra chunks had the pool refills of one at 24")
	}
	var rows [][4]float64 // 1, chunks, batch refills, scratch refills
	var allocs []float64
	for _, extra := range []int{4, 24} {
		run := newRun(extra)
		for r := 0; r < 8; r++ {
			a, refills := measure(run)
			rows = append(rows, [4]float64{1, float64(extra), float64(refills[0]), float64(refills[1])})
			allocs = append(allocs, a)
		}
	}
	coef, ok := leastSquares4(rows, allocs)
	if !ok {
		t.Fatalf("refill counts too uniform to separate from chunk count: %v", rows)
	}
	if perChunk := coef[1]; perChunk > 0.5+raceFitSlack {
		t.Errorf("fused batch path allocates %.2f per steady-state chunk beyond pool refills (%.0f per batch refill, %.0f per scratch refill)",
			perChunk, coef[2], coef[3])
	}
}

// raceFitSlack is the noise allowance of the race-mode fit: refills of
// one pool cost a few dozen allocations more or less depending on when
// they happen, which moves the fitted per-chunk slope by about one.
const raceFitSlack = 2

// leastSquares4 fits y ≈ x·c by the normal equations, reporting false
// when they are singular.
func leastSquares4(x [][4]float64, y []float64) (c [4]float64, ok bool) {
	var a [4][5]float64
	for r, row := range x {
		for i := range row {
			for j := range row {
				a[i][j] += row[i] * row[j]
			}
			a[i][4] += row[i] * y[r]
		}
	}
	for col := 0; col < 4; col++ {
		piv := col
		for r := col + 1; r < 4; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-9 {
			return c, false
		}
		a[col], a[piv] = a[piv], a[col]
		for r := 0; r < 4; r++ {
			if r != col {
				f := a[r][col] / a[col][col]
				for k := col; k < 5; k++ {
					a[r][k] -= f * a[col][k]
				}
			}
		}
	}
	for i := range c {
		c[i] = a[i][4] / a[i][i]
	}
	return c, true
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
		Variants: []*Synthesizer{synth},
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
			bg, s := f.gen(t, ModeAuto)
			return bg, s, f.spec
		},
		"late-divergence": func() (BatchGen, *Synthesizer, Spec) {
			f := newDivergeFixture(traces, 130)
			bg, s := f.gen(t, ModeAuto)
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
					acc, err := RunBatched(Config{Workers: workers, chunkSize: chunk}, spec, bg)
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
		bg, _ := f.gen(t, ModeAuto)
		go func() {
			got, err := RunBatched(Config{Workers: 4, Lanes: 16, chunkSize: 16, Gate: gate}, f.spec, bg)
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
