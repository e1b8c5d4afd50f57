package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sca"
	"repro/internal/trace"
)

// noisyGen synthesizes a deterministic per-index acquisition: Gaussian
// noise plus a signal at sample 3 correlated with hypothesis 7 of every
// bank. Everything derives from the per-trace rng, so the data for index
// i is identical no matter which worker produces it.
func noisyGen(banks []Bank, samples int) Generate {
	return func(i int, rng *rand.Rand, s *Sample) error {
		tr := make([]float64, samples)
		for j := range tr {
			tr[j] = rng.NormFloat64()
		}
		for b, bank := range banks {
			for k := 0; k < bank.Hyps; k++ {
				s.Hyps[b][k] = rng.Float64()
			}
			tr[3] += 2 * s.Hyps[b][7%bank.Hyps]
		}
		s.Trace = tr
		return nil
	}
}

// serialReference feeds the same per-trace data through plain sca.CPA
// accumulators in index order — the materialize-free equivalent of the
// pre-engine serial attack loops.
func serialReference(t *testing.T, spec Spec, gen Generate) []sca.Accumulator {
	t.Helper()
	banks, err := newBanks(spec.Banks, spec.Samples)
	if err != nil {
		t.Fatal(err)
	}
	s := &Sample{Hyps: make([][]float64, len(spec.Banks)), Class: make([]int, len(spec.Banks))}
	for b, bank := range spec.Banks {
		if bank.Classes == nil {
			s.Hyps[b] = make([]float64, bank.Hyps)
		}
	}
	for i := 0; i < spec.Traces; i++ {
		if err := oneTrace(i, spec, gen, s, banks); err != nil {
			t.Fatal(err)
		}
	}
	return banks
}

func TestStreamingEqualsSerialBitForBit(t *testing.T) {
	// The engine's summation order is exactly the serial trace order —
	// for ANY chunk size and worker count, since the reducer folds whole
	// chunks into the global accumulators in chunk order and AddBatch is
	// bit-identical to per-trace Adds. The streaming accumulator must
	// therefore equal the serial sca.CPA accumulator bit for bit.
	spec := Spec{Traces: 50, Samples: 12, Banks: HypothesisBanks(16, 8), Seed: 42}
	gen := noisyGen(spec.Banks, spec.Samples)
	want := serialReference(t, spec, gen)
	for _, workers := range []int{1, 4} {
		for _, chunk := range []int{spec.Traces, 8, 3} {
			got, err := Run(Config{Workers: workers, chunkSize: chunk}, spec, gen)
			if err != nil {
				t.Fatal(err)
			}
			for b := range want {
				if !got[b].(*sca.CPA).Equal(want[b].(*sca.CPA)) {
					t.Errorf("workers=%d chunk=%d: bank %d differs from serial accumulator", workers, chunk, b)
				}
			}
		}
	}
}

func TestStreamingMatchesBatchPearson(t *testing.T) {
	// Independent check of the accumulator algebra: materialize every
	// trace, compute batch Pearson per (hypothesis, sample), compare.
	spec := Spec{Traces: 64, Samples: 6, Banks: HypothesisBanks(10), Seed: 7}
	gen := noisyGen(spec.Banks, spec.Samples)
	traces := make([][]float64, spec.Traces)
	hyps := make([][]float64, spec.Traces)
	s := &Sample{Hyps: [][]float64{make([]float64, 10)}}
	for i := range traces {
		if err := gen(i, TraceRNG(spec.Seed, i), s); err != nil {
			t.Fatal(err)
		}
		traces[i] = s.Trace
		hyps[i] = append([]float64(nil), s.Hyps[0]...)
	}
	banks, err := Run(Config{Workers: 3, chunkSize: 5}, spec, gen)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		h := make([]float64, spec.Traces)
		for i := range h {
			h[i] = hyps[i][k]
		}
		for sm := 0; sm < spec.Samples; sm++ {
			x := make([]float64, spec.Traces)
			for i := range x {
				x[i] = traces[i][sm]
			}
			want, err := sca.Pearson(h, x)
			if err != nil {
				t.Fatal(err)
			}
			if got := banks[0].Corr(k, sm); math.Abs(got-want) > 1e-9 {
				t.Fatalf("hyp %d sample %d: streaming %v vs batch %v", k, sm, got, want)
			}
		}
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	// The real determinism guarantee: same chunk size, any pool size,
	// bit-identical accumulators and therefore byte-identical rankings.
	spec := Spec{Traces: 97, Samples: 9, Banks: HypothesisBanks(32), Seed: 11}
	gen := noisyGen(spec.Banks, spec.Samples)
	ref, err := Run(Config{Workers: 1, chunkSize: 8}, spec, gen)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 16} {
		got, err := Run(Config{Workers: workers, chunkSize: 8}, spec, gen)
		if err != nil {
			t.Fatal(err)
		}
		if !got[0].(*sca.CPA).Equal(ref[0].(*sca.CPA)) {
			t.Fatalf("workers=%d: accumulator differs from workers=1", workers)
		}
		a, b := got[0].Result(), ref[0].Result()
		for k := range a.Ranking {
			if a.Ranking[k] != b.Ranking[k] {
				t.Fatalf("workers=%d: ranking differs at position %d", workers, k)
			}
		}
	}
}

func TestCheckpointsObservePrefixes(t *testing.T) {
	spec := Spec{Traces: 20, Samples: 5, Banks: HypothesisBanks(4), Seed: 9, Checkpoints: []int{3, 10, 20}}
	gen := noisyGen(spec.Banks, spec.Samples)
	var seen []int
	snaps := map[int]*sca.CPA{}
	spec.OnCheckpoint = func(n int, banks []sca.Accumulator) {
		seen = append(seen, n)
		snaps[n] = banks[0].(*sca.CPA).Clone()
	}
	final, err := Run(Config{Workers: 4, chunkSize: 8}, spec, gen)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seen) != "[3 10 20]" {
		t.Fatalf("checkpoints fired at %v", seen)
	}
	if !snaps[20].Equal(final[0].(*sca.CPA)) {
		t.Fatal("final checkpoint differs from returned accumulator")
	}
	// Each checkpoint must equal an independent run over the prefix with
	// the same chunk cuts.
	for _, n := range []int{3, 10} {
		sub := spec
		sub.Traces = n
		sub.OnCheckpoint = nil
		var cks []int
		for _, c := range spec.Checkpoints {
			if c < n {
				cks = append(cks, c)
			}
		}
		sub.Checkpoints = cks
		want, err := Run(Config{Workers: 2, chunkSize: 8}, sub, gen)
		if err != nil {
			t.Fatal(err)
		}
		if snaps[n].Count() != n || !snaps[n].Equal(want[0].(*sca.CPA)) {
			t.Fatalf("checkpoint %d does not match a prefix run", n)
		}
	}
}

func TestRunPropagatesGenerateError(t *testing.T) {
	spec := Spec{Traces: 40, Samples: 4, Banks: HypothesisBanks(4), Seed: 1}
	boom := errors.New("boom")
	gen := func(i int, rng *rand.Rand, s *Sample) error {
		if i == 13 {
			return boom
		}
		s.Trace = make([]float64, 4)
		return nil
	}
	_, err := Run(Config{Workers: 4, chunkSize: 4}, spec, gen)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "trace 13") {
		t.Fatalf("error = %v, want wrapped boom naming trace 13", err)
	}
}

func TestRunRejectsWrongTraceLength(t *testing.T) {
	spec := Spec{Traces: 4, Samples: 4, Banks: HypothesisBanks(4), Seed: 1}
	gen := func(i int, rng *rand.Rand, s *Sample) error {
		s.Trace = make([]float64, 3)
		return nil
	}
	if _, err := Run(Config{}, spec, gen); err == nil {
		t.Fatal("length mismatch must be rejected")
	}
}

func TestSpecValidation(t *testing.T) {
	gen := func(i int, rng *rand.Rand, s *Sample) error { return nil }
	bad := []Spec{
		{Traces: 0, Samples: 4, Banks: HypothesisBanks(4)},
		{Traces: 4, Samples: 0, Banks: HypothesisBanks(4)},
		{Traces: 4, Samples: 4},
		{Traces: 4, Samples: 4, Banks: HypothesisBanks(1)},
		{Traces: 4, Samples: 4, Banks: []Bank{{Hyps: 4, Classes: [][]float64{{1, 2, 3}}}}},
		{Traces: 4, Samples: 4, Banks: HypothesisBanks(4), Checkpoints: []int{5}},
		{Traces: 4, Samples: 4, Banks: HypothesisBanks(4), Checkpoints: []int{2, 2}},
	}
	for i, spec := range bad {
		if _, err := Run(Config{}, spec, gen); err == nil {
			t.Errorf("spec %d must be rejected", i)
		}
	}
}

// TestWorkerPoolRace exercises the pool with heavy contention; the race
// detector (go test -race) turns any unsynchronized access into a
// failure.
func TestWorkerPoolRace(t *testing.T) {
	spec := Spec{Traces: 300, Samples: 16, Banks: HypothesisBanks(8, 8, 8), Seed: 5,
		Checkpoints: []int{50, 150, 300}}
	spec.OnCheckpoint = func(n int, banks []sca.Accumulator) { _ = banks[0].Corr(0, 0) }
	gen := noisyGen(spec.Banks, spec.Samples)
	if _, err := Run(Config{Workers: 8, chunkSize: 7}, spec, gen); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRNGIndependence(t *testing.T) {
	a, b := TraceRNG(1, 0), TraceRNG(1, 1)
	if a.Uint64() == b.Uint64() {
		t.Error("adjacent trace streams must differ")
	}
	if TraceRNG(1, 0).Uint64() != TraceRNG(1, 0).Uint64() {
		t.Error("trace stream must be reproducible")
	}
}

// TestTraceRNGFullSeedSpace guards against funneling stream identities
// through math/rand's ~2^31 seed space: doing so made distinct traces
// draw bit-identical plaintext and noise at realistic trace counts
// (e.g. traces 4521 and 8525 under seed 1 collided).
func TestTraceRNGFullSeedSpace(t *testing.T) {
	var a, b [16]byte
	TraceRNG(1, 4521).Read(a[:])
	TraceRNG(1, 8525).Read(b[:])
	if a == b {
		t.Fatal("streams 4521 and 8525 still collide under seed 1")
	}
	seen := make(map[uint64]int, 50000)
	for i := 0; i < 50000; i++ {
		v := TraceRNG(1, i).Uint64()
		if j, dup := seen[v]; dup {
			t.Fatalf("streams %d and %d open with the same value", j, i)
		}
		seen[v] = i
	}
}

// indexGen is an auto-mode batch generator over the batch fixture whose
// aux record is the trace index; prepare, when set, may fail a trace.
func indexGen(t *testing.T, prepare func(i int) error) (BatchGen, int) {
	t.Helper()
	f := newBatchFixture(0)
	synth, err := NewSynthesizer(ModeAuto, f.cfg, f.prog)
	if err != nil {
		t.Fatal(err)
	}
	return BatchGen{
		Variants: []*Synthesizer{synth},
		Model:    &f.m,
		Averages: 1,
		Prepare: func(i int, rng *rand.Rand, core *pipeline.Core, s *Sample) error {
			f.initCore(core, uint32(i))
			s.Aux = append(s.Aux[:0], byte(i))
			if prepare != nil {
				return prepare(i)
			}
			return nil
		},
	}, f.spec.Samples
}

func TestStreamOrderedEmit(t *testing.T) {
	var got []int
	bg, samples := indexGen(t, nil)
	spec := Spec{Traces: 43, Samples: samples, Seed: 2, Emit: func(i int, tr trace.Trace, aux []byte) error {
		got = append(got, i)
		if aux[0] != byte(i) || len(tr) != samples {
			return fmt.Errorf("trace %d: aux %d, %d samples", i, aux[0], len(tr))
		}
		return nil
	}}
	if _, err := RunBatched(Config{Workers: 5, chunkSize: 3}, spec, bg); err != nil {
		t.Fatal(err)
	}
	if len(got) != 43 {
		t.Fatalf("emitted %d traces, want 43", len(got))
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("emit order broken at %d: idx %d", i, got[i])
		}
	}
}

func TestStreamPropagatesErrors(t *testing.T) {
	boom := errors.New("prepare failed")
	bg, samples := indexGen(t, func(i int) error {
		if i == 7 {
			return boom
		}
		return nil
	})
	spec := Spec{Traces: 10, Samples: samples, Seed: 1, Emit: func(int, trace.Trace, []byte) error { return nil }}
	if _, err := RunBatched(Config{Workers: 2}, spec, bg); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want prepare error", err)
	}
	emitErr := errors.New("emit failed")
	bg, _ = indexGen(t, nil)
	spec.Emit = func(i int, tr trace.Trace, aux []byte) error {
		if i == 4 {
			return emitErr
		}
		return nil
	}
	if _, err := RunBatched(Config{Workers: 2}, spec, bg); !errors.Is(err, emitErr) {
		t.Fatalf("err = %v, want emit error", err)
	}
}

// oneTrace synthesizes trace i and feeds it to the accumulators — the
// reference serial semantics the engine reproduces bit-identically for
// any worker count, chunk size and lane width.
func oneTrace(i int, spec Spec, gen Generate, s *Sample, banks []sca.Accumulator) error {
	s.Trace = s.Trace[:0]
	if err := gen(i, TraceRNG(spec.Seed, i), s); err != nil {
		return fmt.Errorf("engine: trace %d: %w", i, err)
	}
	if len(s.Trace) != spec.Samples {
		return fmt.Errorf("engine: trace %d has %d samples, want %d", i, len(s.Trace), spec.Samples)
	}
	for b, acc := range banks {
		tr := s.Trace
		if o := spec.Banks[b].Order2; o != nil {
			w := o.windows(spec.Samples)
			tr = make([]float64, sca.Order2Len(w))
			sca.Order2Combine(tr, s.Trace, o.Means, w)
		}
		var err error
		switch a := acc.(type) {
		case *sca.CPA:
			err = a.Add(tr, s.Hyps[b])
		case *sca.ClassCPA:
			err = a.Add(s.Class[b], tr)
		}
		if err != nil {
			return fmt.Errorf("engine: trace %d: %w", i, err)
		}
	}
	return nil
}
