package engine

import (
	"math/rand"

	"repro/internal/znorm"
)

// splitmix64 is the SplitMix64 finalizer: a bijective 64-bit mix with
// full avalanche, the standard generator for seeding parallel random
// streams from a counter.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// splitMixSource is a SplitMix64 rand.Source64. math/rand's default
// source folds its seed into a ~2^31 space, which would collide distinct
// trace streams at realistic trace counts (birthday bound ~2^16); this
// source keeps the full 64-bit stream identity.
type splitMixSource struct{ state uint64 }

// Uint64 advances the SplitMix64 state and returns the mixed output —
// the full-period 64-bit stream that keeps distinct trace identities
// collision-free.
func (s *splitMixSource) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	x := s.state
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Int63 implements rand.Source by truncating Uint64, as rand.Source64
// consumers expect.
func (s *splitMixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// FillNorm draws len(dst) standard normals from the stream, bit-identical
// to len(dst) successive NormFloat64 calls on a rand.Rand wrapping this
// source (rand.Rand keeps no draw state of its own beyond the byte
// buffer of Read, which NormFloat64 never touches). It implements
// power.NormSource, the bulk seam of the fused batch expansion; the
// draw-for-draw pin against math/rand lives in rng_test.go.
func (s *splitMixSource) FillNorm(dst []float64) { znorm.Fill(dst, &s.state) }

// Seed installs the 64-bit stream state verbatim (no folding), so a
// reseeded pooled source draws bit-identically to a fresh source at
// traceState(seed, i) — the property reseedTraceRNG relies on.
func (s *splitMixSource) Seed(seed int64) { s.state = uint64(seed) }

// traceState derives trace i's private 64-bit stream state from the
// base seed. Distinct (seed, i) pairs map to distinct states. Deriving
// the stream from (seed, i) — rather than splitting one sequential
// stream — is what lets workers synthesize traces in any order while
// every trace sees exactly the same plaintext and noise.
func traceState(seed int64, i int) uint64 {
	return splitmix64(splitmix64(uint64(seed)) + uint64(i))
}

// DeriveSeed derives an independent child seed from a parent seed and a
// textual label, by mixing an FNV-1a 64 hash of the label into the
// parent through the SplitMix64 finalizer. It is the campaign-level
// analogue of traceState's (seed, index) derivation: the child depends
// only on (seed, label) — never on enumeration order or scheduling — so
// experiments named by stable labels keep bit-identical seeds when
// their surroundings change. Distinct labels yield independent streams.
func DeriveSeed(seed int64, label string) int64 {
	const (
		fnvOffset = 0xcbf29ce484222325
		fnvPrime  = 0x100000001b3
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= fnvPrime
	}
	return int64(splitmix64(splitmix64(uint64(seed)) ^ h))
}

// reseedTraceRNG repoints a pooled rand.Rand over a splitMixSource at
// trace i's stream, yielding draws bit-identical to a fresh one at
// traceState(seed, i): Rand.Seed resets the buffered-byte state and our
// source's Seed installs the stream state verbatim.
func reseedTraceRNG(r *rand.Rand, seed int64, i int) {
	r.Seed(int64(traceState(seed, i)))
}
