package engine

import (
	"math"
	"math/rand"
	"testing"
)

// TraceRNG returns trace i's private random stream under the given base
// seed: the stream the engine's pooled generators are reseeded to
// (reseedTraceRNG), fresh, for the per-trace references.
func TraceRNG(seed int64, i int) *rand.Rand {
	return rand.New(&splitMixSource{state: traceState(seed, i)})
}

// TestFillNormMatchesRand pins the bulk sampler to math/rand draw for
// draw: FillNorm on a splitMixSource must produce exactly the float64
// sequence rand.Rand.NormFloat64 produces over an identical stream —
// across many seeds, so the ziggurat's rare paths (base-strip tail,
// wedge rejection) are all exercised.
func TestFillNormMatchesRand(t *testing.T) {
	const perSeed = 4096
	buf := make([]float64, perSeed)
	for seed := int64(0); seed < 64; seed++ {
		state := traceState(seed, int(seed*7))
		ref := rand.New(&splitMixSource{state: state})
		fast := &splitMixSource{state: state}
		fast.FillNorm(buf)
		for i, got := range buf {
			want := ref.NormFloat64()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d draw %d: FillNorm %x (%g), NormFloat64 %x (%g)",
					seed, i, math.Float64bits(got), got, math.Float64bits(want), want)
			}
		}
	}
}

// TestFillNormInterleaved checks the state handoff both ways: draws
// through the rand.Rand wrapper and through FillNorm interleave on one
// shared source without perturbing each other's sequences — the exact
// situation of the fused path, where Prepare draws plaintext bytes
// through the wrapper and the block expansion then bulk-draws noise.
func TestFillNormInterleaved(t *testing.T) {
	state := traceState(42, 1)
	ref := rand.New(&splitMixSource{state: state})
	src := &splitMixSource{state: state}
	mixed := rand.New(src)

	var pt [16]byte
	mixed.Read(pt[:])
	var ptRef [16]byte
	ref.Read(ptRef[:])
	if pt != ptRef {
		t.Fatalf("Read diverged before any FillNorm")
	}

	buf := make([]float64, 1024)
	src.FillNorm(buf)
	for i, got := range buf {
		if want := ref.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d after Read: FillNorm %g, NormFloat64 %g", i, got, want)
		}
	}

	// And the wrapper keeps drawing identically after the bulk fill.
	for i := 0; i < 256; i++ {
		if got, want := mixed.NormFloat64(), ref.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("wrapper draw %d after FillNorm: %g, want %g", i, got, want)
		}
	}
}
