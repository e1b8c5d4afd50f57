package power

import (
	"math"
	"math/rand"
	"testing"

	_ "repro/internal/aes" // register the AES target
	"repro/internal/pipeline"
	"repro/internal/target"
)

// TestSynthesizeIntoBitIdentical pins the buffer-reusing synthesis path
// (hoisted pulse table, active-component list) to the original: same
// timeline, same rng stream, bit-identical samples — with and without
// noise and averaging, across reused buffers of every prior size.
func TestSynthesizeIntoBitIdentical(t *testing.T) {
	key := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	tgt, err := target.Get("aes")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	inst, err := tgt.New(cfg, key, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := target.Run(inst, cfg, append([]byte{0xAA}, make([]byte, 15)...))
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultModel()

	check := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: sample %d: %x vs %x", name, i, a[i], b[i])
			}
		}
	}

	// Noiseless.
	check("noiseless", m.Synthesize(res.Timeline, nil), m.SynthesizeInto(nil, res.Timeline, nil))

	// Noisy: identical rng streams.
	a := m.Synthesize(res.Timeline, rand.New(rand.NewSource(3)))
	b := m.SynthesizeInto(make([]float64, 0, 8), res.Timeline, rand.New(rand.NewSource(3)))
	check("noisy", a, b)

	// Averaged, with dirty reused buffers.
	dirty1 := make([]float64, len(a))
	dirty2 := make([]float64, len(a))
	for i := range dirty1 {
		dirty1[i] = math.NaN()
		dirty2[i] = math.Inf(1)
	}
	want := m.SynthesizeAveraged(res.Timeline, rand.New(rand.NewSource(9)), 4)
	got, _ := m.SynthesizeAveragedInto(dirty1[:0], dirty2[:0], res.Timeline, rand.New(rand.NewSource(9)), 4)
	check("averaged", want, got)
}
