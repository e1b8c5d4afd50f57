package masking

import (
	"math/rand"
	"testing"
)

// Native fuzz target for the share encoding: the randomness is derived
// from the fuzzed seed, so every interesting input the fuzzer finds
// replays deterministically from the corpus.

func FuzzSplitCombine(f *testing.F) {
	f.Add(int64(1), uint32(0))
	f.Add(int64(2), uint32(0xFFFFFFFF))
	f.Add(int64(3), uint32(0xDEADBEEF))
	f.Fuzz(func(t *testing.T, seed int64, v uint32) {
		rng := rand.New(rand.NewSource(seed))
		s0, s1 := Split(rng, v)
		if Combine(s0, s1) != v {
			t.Fatalf("Split/Combine lost the value: %#x -> (%#x, %#x)", v, s0, s1)
		}
	})
}
