package engine

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/osnoise"
	"repro/internal/sca"
	"repro/internal/trace"
)

// FuzzRunBatchedSchedule fuzzes the determinism contract of RunBatched:
// whatever the schedule (workers, chunk size, lanes) and the run's shape
// (trace count, averages, quiet or loaded environment, Emit, variant
// count and selection, a forced divergence of one trace and of the next
// trace of its variant — two lanes of one verification group when both
// fall in the window — and a first-order, class or
// self-centered second-order bank with or without windows), the banks
// and the emitted traces equal the per-trace reference bit for bit, and
// every synthesizer's fallback verdict equals the one-worker run's.
func FuzzRunBatchedSchedule(f *testing.F) {
	// workers, chunk, lanes, traces, avg, loaded, emit, variants, pick, bank, bad
	f.Add(uint8(0), uint8(0), uint8(0), uint16(150), uint8(1), false, false, uint8(0), uint8(0), uint8(0), int16(-1))
	f.Add(uint8(2), uint8(7), uint8(5), uint16(211), uint8(2), true, true, uint8(2), uint8(0), uint8(1), int16(-1))
	f.Add(uint8(3), uint8(50), uint8(64), uint16(260), uint8(0), false, true, uint8(2), uint8(1), uint8(2), int16(170))
	f.Add(uint8(1), uint8(16), uint8(33), uint16(97), uint8(3), true, false, uint8(1), uint8(2), uint8(3), int16(-1))
	f.Add(uint8(2), uint8(96), uint8(1), uint16(300), uint8(1), false, false, uint8(2), uint8(2), uint8(4), int16(250))
	f.Add(uint8(3), uint8(0), uint8(0), uint16(200), uint8(0), false, false, uint8(2), uint8(0), uint8(0), int16(5))
	f.Add(uint8(1), uint8(40), uint8(9), uint16(250), uint8(1), true, true, uint8(2), uint8(0), uint8(1), int16(14))
	f.Fuzz(func(t *testing.T, workers, chunk, lanes uint8, traces uint16, avg uint8, loaded, emit bool, variants, pick, bank uint8, bad int16) {
		n := 8 + int(traces)%300
		fx := newVariantFixture(t, n)
		fx.progs = fx.progs[:1+int(variants)%3]
		nv := len(fx.progs)
		switch pick % 3 {
		case 0: // uniform
			fx.pick = func(i, d int) int { return d % nv }
		case 1: // the last variant on one draw in eight
			fx.pick = func(i, d int) int {
				if d == 2 && i%8 == 0 {
					return nv - 1
				}
				return d % max(nv-1, 1)
			}
		default: // the last variant only in the second half
			fx.pick = func(i, d int) int {
				if i < n/2 {
					return d % max(nv-1, 1)
				}
				return d % nv
			}
		}
		fx.bad = int(bad)
		if fx.bad >= 0 {
			fx.bad2 = fx.nextOfVariant(fx.bad, 2)
		}
		fx.avg = 1 + int(avg)%4
		if loaded {
			fx.env = osnoise.LoadedLinux()
			fx.env.PreemptProb = 0.2
		}
		s := fx.spec.Samples
		switch bank % 5 {
		case 1:
			fx.spec.Banks = []Bank{{Hyps: 2, Classes: [][]float64{{0, 1}, {1, 0}}}}
		case 2:
			fx.spec.Banks = []Bank{{Hyps: 2, Order2: &Order2{}}}
		case 3:
			fx.spec.Banks = []Bank{{Hyps: 2, Order2: &Order2{Windows: []sca.Window{{Lo: 1, Hi: s / 3}, {Lo: s / 2, Hi: s}}}}}
		case 4:
			fx.spec.Banks = []Bank{{Hyps: 2, Classes: [][]float64{{0, 1}, {1, 0}}, Order2: &Order2{}}}
		}

		// The per-trace reference: banks folded trace by trace (a
		// second-order bank centered on the trace-order mean) and the
		// traces themselves.
		gen := fx.scalar(t)
		want := serialReference(t, fx.spec, gen)
		var wantTraces []trace.Trace
		sample := newSample(fx.spec)
		for i := 0; i < n; i++ {
			if err := gen(i, TraceRNG(fx.spec.Seed, i), sample); err != nil {
				t.Fatal(err)
			}
			wantTraces = append(wantTraces, slices.Clone(sample.Trace))
		}

		cfg := Config{Workers: 1 + int(workers)%4, Lanes: int(lanes) % 65, chunkSize: int(chunk) % 130}
		run := func(cfg Config) ([]*Synthesizer, []trace.Trace) {
			spec := fx.spec
			var got []trace.Trace
			if emit {
				spec.Emit = func(i int, tr trace.Trace, _ []byte) error {
					got = append(got, slices.Clone(tr))
					return nil
				}
			}
			bg, synths := fx.gen(t, ModeAuto)
			banks, err := RunBatched(cfg, spec, bg)
			if err != nil {
				t.Fatalf("%+v: %v", cfg, err)
			}
			for b := range banks {
				if !accEqual(banks[b], want[b]) {
					t.Fatalf("%+v: bank %d differs from the per-trace reference", cfg, b)
				}
			}
			return synths, got
		}
		synths, got := run(cfg)
		if emit {
			if len(got) != n {
				t.Fatalf("%+v: emitted %d traces, want %d", cfg, len(got), n)
			}
			for i := range got {
				if !slices.EqualFunc(got[i], wantTraces[i], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
					t.Fatalf("%+v: emitted trace %d differs from the per-trace reference", cfg, i)
				}
			}
		}
		one := cfg
		one.Workers = 1
		ref, _ := run(one)
		for v := range synths {
			if synths[v].FellBack() != ref[v].FellBack() || synths[v].FallbackReason() != ref[v].FallbackReason() {
				t.Fatalf("%+v: variant %d fell back %v (%q), one worker %v (%q)", cfg, v,
					synths[v].FellBack(), synths[v].FallbackReason(), ref[v].FellBack(), ref[v].FallbackReason())
			}
		}
		// Trace bad precedes bad2, so when it runs variant 2 its first
		// store names the reason, never bad2's second.
		if nv == 3 && fx.bad >= 0 && fx.variant(fx.bad, TraceRNG(fx.spec.Seed, fx.bad)) == 2 && strings.Contains(synths[2].FallbackReason(), "step 3 ") {
			t.Fatalf("%+v: fallback reason %q is trace %d's, not trace %d's", cfg, synths[2].FallbackReason(), fx.bad2, fx.bad)
		}
	})
}

// accEqual reports whether two banks hold bit-identical sums.
func accEqual(a, b sca.Accumulator) bool {
	switch x := a.(type) {
	case *sca.CPA:
		y, ok := b.(*sca.CPA)
		return ok && x.Equal(y)
	case *sca.ClassCPA:
		y, ok := b.(*sca.ClassCPA)
		return ok && x.Equal(y)
	}
	return false
}
