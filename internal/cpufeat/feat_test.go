package cpufeat

import "testing"

func TestForcedPortableParsing(t *testing.T) {
	cases := []struct {
		v    string
		want bool
	}{
		{"", false},
		{"0", false},
		{"1", true},
		{"true", true},
		{"yes", true},
	}
	for _, c := range cases {
		if got := forcedPortable(c.v); got != c.want {
			t.Errorf("forcedPortable(%q) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestForcedPortableDisablesEverything(t *testing.T) {
	// The package-level flags are bound at init, so this asserts the
	// invariant rather than re-reading the environment: a forced-
	// portable process must expose no SIMD feature at all.
	if ForcedPortable && (AVX || FMA || AVX512 || AVX512Popcnt || BMI2) {
		t.Fatalf("forced portable but AVX=%v FMA=%v AVX512=%v AVX512Popcnt=%v BMI2=%v", AVX, FMA, AVX512, AVX512Popcnt, BMI2)
	}
	if FMA && !AVX {
		t.Fatal("FMA implies AVX")
	}
	if AVX512Popcnt && !AVX512 {
		t.Fatal("AVX512Popcnt implies AVX512")
	}
}
