package engine

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/replay"
)

func mustAssemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runSeries synthesizes executions [0, n) in lane groups of at most
// lanes — split at the verification window's end, as the engine
// drivers do — and returns every execution's cycle powers.
func runSeries(t *testing.T, s *Synthesizer, n, lanes int, init func(i int, core *pipeline.Core)) [][]float64 {
	t.Helper()
	m := power.DefaultModel()
	out := make([][]float64, n)
	for base := 0; base < n; {
		l := s.groupWidth(n-base, lanes)
		err := s.RunBatch(&m, l,
			func(lane int, core *pipeline.Core) error { init(base+lane, core); return nil },
			func(lane int, cycles []float64, _ *pipeline.Core) error {
				out[base+lane] = append([]float64(nil), cycles...)
				return nil
			})
		if err != nil {
			t.Fatalf("group at %d: %v", base, err)
		}
		base += l
	}
	return out
}

func powersMatch(t *testing.T, want, got [][]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("series length %d vs %d", len(want), len(got))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("run %d: %d cycles vs %d", i, len(want[i]), len(got[i]))
		}
		for c := range want[i] {
			if math.Float64bits(want[i][c]) != math.Float64bits(got[i][c]) {
				t.Fatalf("run %d cycle %d differs", i, c)
			}
		}
	}
}

// TestSynthesizerModesAgree pins the three modes against each other on
// a schedule-invariant program: bit-identical cycle powers everywhere,
// with the batch path live after the window.
func TestSynthesizerModesAgree(t *testing.T) {
	prog := mustAssemble(t, "add r0, r1, r2\nldr r3, [r8]\nstr r0, [r9]\neor r4, r3, r0")
	init := func(i int, core *pipeline.Core) {
		core.SetRegs(0, uint32(i)*0x1111, 0xBEEF)
		core.SetReg(isa.R8, 0x100)
		core.SetReg(isa.R9, 0x200)
		core.Mem().Write32(0x100, uint32(i)*7)
	}
	var series [][][]float64
	for _, mode := range []Mode{ModeSimulate, ModeAuto, ModeReplay} {
		s, err := NewSynthesizer(mode, pipeline.DefaultConfig(), prog)
		if err != nil {
			t.Fatal(err)
		}
		series = append(series, runSeries(t, s, VerifyRuns+16, 8, init))
		if mode != ModeSimulate && s.FellBack() {
			t.Fatalf("%v fell back: %s", mode, s.FallbackReason())
		}
		if mode != ModeSimulate && s.BatchRuns() == 0 {
			t.Fatalf("%v never batched", mode)
		}
	}
	powersMatch(t, series[0], series[1])
	powersMatch(t, series[0], series[2])
}

// TestSynthesizerRunSimulates pins Run as plain simulation: the
// timeline handed to use is the simulator's.
func TestSynthesizerRunSimulates(t *testing.T) {
	prog := mustAssemble(t, "add r0, r1, r2\nstr r0, [r8]")
	s, err := NewSynthesizer(ModeAuto, pipeline.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	init := func(core *pipeline.Core) {
		core.SetRegs(0, 5, 9)
		core.SetReg(isa.R8, 0x100)
	}
	ref := pipeline.MustNew(pipeline.DefaultConfig(), nil)
	init(ref)
	want, err := ref.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Run(init, func(tl pipeline.Timeline, core *pipeline.Core) error {
		if len(tl) != len(want.Timeline) {
			t.Fatalf("%d cycles, simulated %d", len(tl), len(want.Timeline))
		}
		for c := range tl {
			if tl[c] != want.Timeline[c] {
				t.Fatalf("cycle %d differs", c)
			}
		}
		if core.Mem().Read32(0x100) != 14 {
			t.Fatal("final state not delivered")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSynthesizerAutoFallsBackOnColdCaches breaks schedule invariance
// the way the paper's warmed-cache protocol exists to avoid: a cold
// cache hierarchy per acquisition. The verification window must detect
// the timing divergence, fall back, and still deliver output
// bit-identical to pure simulation.
func TestSynthesizerAutoFallsBackOnColdCaches(t *testing.T) {
	prog := mustAssemble(t, "ldr r0, [r8]\nadd r1, r0, r2\nldr r3, [r9]\nstr r1, [r9]")
	init := func(i int, core *pipeline.Core) {
		core.SetHierarchy(mem.DefaultHierarchy()) // cold every run
		core.SetReg(isa.R8, 0x100)
		core.SetReg(isa.R9, 0x400)
		core.Mem().Write32(0x100, uint32(i))
	}
	auto, err := NewSynthesizer(ModeAuto, pipeline.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSynthesizer(ModeSimulate, pipeline.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	got := runSeries(t, auto, 12, 4, init)
	want := runSeries(t, sim, 12, 4, init)
	if !auto.FellBack() {
		t.Fatal("auto mode did not fall back despite cold caches")
	}
	t.Logf("fallback reason: %s", auto.FallbackReason())
	powersMatch(t, want, got)
}

// TestSynthesizerAutoRecoversFromLateDivergence flips a pinned
// conditional only after the verification window has closed: the batch
// VM's per-step guard must catch it, the group must be re-initialized
// and simulated, and the whole series must stay bit-identical to pure
// simulation.
func TestSynthesizerAutoRecoversFromLateDivergence(t *testing.T) {
	prog := mustAssemble(t, "cmp r0, #1\nmuleq r3, r1, r2\nstr r3, [r8]")
	flip := VerifyRuns + 5
	init := func(i int, core *pipeline.Core) {
		r0 := uint32(1)
		if i >= flip {
			r0 = 0 // the conditional multiplier no longer executes
		}
		core.SetRegs(r0, uint32(i)+3, 7)
		core.SetReg(isa.R8, 0x100)
	}
	auto, err := NewSynthesizer(ModeAuto, pipeline.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSynthesizer(ModeSimulate, pipeline.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	n := flip + 8
	got := runSeries(t, auto, n, 4, init)
	want := runSeries(t, sim, n, 4, init)
	if !auto.FellBack() {
		t.Fatal("auto mode did not fall back on the late divergence")
	}
	if auto.BatchRuns() == 0 {
		t.Fatal("no group batched before the divergence")
	}
	if got, want := auto.FallbackReason(), replay.ErrDiverged.Error(); got != want {
		t.Fatalf("fallback reason %q, want %q", got, want)
	}
	powersMatch(t, want, got)
}

// TestSynthesizerConcurrentFallbackStaysSimulationIdentical hammers the
// verification window from many goroutines against a schedule-variant
// setup (cold caches). The batch path must never open while a failing
// verification group may still be pending, so every produced trace —
// whatever the interleaving — equals pure simulation of the same
// initial state.
func TestSynthesizerConcurrentFallbackStaysSimulationIdentical(t *testing.T) {
	prog := mustAssemble(t, "ldr r0, [r8]\nadd r1, r0, r2\nldr r3, [r9]\nstr r1, [r9]")
	init := func(i int, core *pipeline.Core) {
		core.SetHierarchy(mem.DefaultHierarchy()) // cold every run
		core.SetReg(isa.R8, 0x100)
		core.SetReg(isa.R9, 0x400)
		core.Mem().Write32(0x100, uint32(i))
	}
	auto, err := NewSynthesizer(ModeAuto, pipeline.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSynthesizer(ModeSimulate, pipeline.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per, lanes = 8, 40, 4
	m := power.DefaultModel()
	got := make([][]float64, goroutines*per)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < per; j += lanes {
				base := g*per + j
				err := auto.RunBatch(&m, lanes,
					func(lane int, core *pipeline.Core) error { init(base+lane, core); return nil },
					func(lane int, cycles []float64, _ *pipeline.Core) error {
						got[base+lane] = append([]float64(nil), cycles...)
						return nil
					})
				if err != nil {
					t.Errorf("group at %d: %v", base, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if !auto.FellBack() {
		t.Fatal("auto mode did not fall back despite cold caches")
	}
	want := runSeries(t, sim, goroutines*per, lanes, init)
	powersMatch(t, want, got)
}

// TestSynthesizerForcedReplayFailsHard is ModeReplay's contract: a
// divergence is an error, not a silent repair.
func TestSynthesizerForcedReplayFailsHard(t *testing.T) {
	prog := mustAssemble(t, "cmp r0, #1\nmuleq r3, r1, r2")
	s, err := NewSynthesizer(ModeReplay, pipeline.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	m := power.DefaultModel()
	use := func(int, []float64, *pipeline.Core) error { return nil }
	if err := s.RunBatch(&m, 2, func(_ int, c *pipeline.Core) error { c.SetRegs(1, 2, 3); return nil }, use); err != nil {
		t.Fatal(err)
	}
	err = s.RunBatch(&m, 2, func(_ int, c *pipeline.Core) error { c.SetRegs(0, 2, 3); return nil }, use)
	if !errors.Is(err, replay.ErrDiverged) {
		t.Fatalf("forced replay on diverging input: got %v, want ErrDiverged", err)
	}
}

// TestSynthesizerCompileBatchFailureFallsBack pins the compile-failure
// path: a schedule the batch lowering refuses sends auto mode to the
// simulator with the refusal in both FallbackReason and
// BatchDisabledReason, while ModeReplay reports it as an error.
func TestSynthesizerCompileBatchFailureFallsBack(t *testing.T) {
	prog := mustAssemble(t, "add r0, r1, r2\nstr r0, [r8]")
	m := power.DefaultModel()
	init := func(_ int, c *pipeline.Core) error { c.SetRegs(0, 1, 2); c.SetReg(isa.R8, 0x100); return nil }
	use := func(int, []float64, *pipeline.Core) error { return nil }
	for _, mode := range []Mode{ModeAuto, ModeReplay} {
		s, err := NewSynthesizer(mode, pipeline.DefaultConfig(), prog)
		if err != nil {
			t.Fatal(err)
		}
		// Stand in for a lowering failure: program() reports the sticky
		// error it recorded.
		s.batchErr = errors.New("replay: batch: unsupported drive overlap")
		s.compileErr = errors.New("compile: " + s.batchErr.Error())
		err = s.RunBatch(&m, 4, init, use)
		if mode == ModeReplay {
			if err == nil {
				t.Fatal("replay mode ignored the compile failure")
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !s.FellBack() || s.FallbackReason() != s.compileErr.Error() {
			t.Fatalf("fallback %v reason %q, want %q", s.FellBack(), s.FallbackReason(), s.compileErr)
		}
		if s.BatchDisabledReason() != s.batchErr.Error() {
			t.Fatalf("batch disabled reason %q", s.BatchDisabledReason())
		}
	}
}

// steadyRunner is a persistent BlockRunner for the allocation test.
type steadyRunner struct{}

func (steadyRunner) InitLane(lane int, core *pipeline.Core) error {
	core.SetRegs(4, 5, uint32(lane))
	core.SetReg(isa.R8, 0x100)
	core.SetReg(isa.R9, 0x200)
	return nil
}

func (steadyRunner) Block([][]float64, []*pipeline.Core) error { return nil }

// TestSynthesizerSteadyStateAllocs is the pooled-scratch assertion: a
// steady-state batch group allocates nothing (the engine's per-trace
// rng and accumulators live outside the Synthesizer).
func TestSynthesizerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool caching")
	}
	prog := mustAssemble(t, "add r0, r1, r2\nldr r3, [r8]\neor r4, r3, r0\nstr r4, [r9]")
	s, err := NewSynthesizer(ModeAuto, pipeline.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	m := power.DefaultModel()
	var r BlockRunner = steadyRunner{}
	// Pass the verification window first.
	for i := 0; i < VerifyRuns/8+1; i++ {
		if err := s.RunBatchBlock(&m, 8, r); err != nil {
			t.Fatal(err)
		}
	}
	if s.FellBack() || s.BatchRuns() == 0 {
		t.Fatalf("batch path not live: fallback %q", s.FallbackReason())
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := s.RunBatchBlock(&m, 8, r); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Errorf("steady-state batch group allocates %.1f objects, want <= 1", avg)
	}
}
