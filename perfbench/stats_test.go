package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{1, 2}, 0.75, 2.25}, // Python extrapolates past the ends
		{[]float64{2.0, 2.1, 1.9, 2.05}, 1.925, 2.0875},
	} {
		q1, q3 := quartiles(tc.in)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		value  float64
		pct    float64
		beyond int
	}{
		{1000, 990, 99, 10},
		{400, 380, 95, 20},
		{100, 90, 90, 10},
		{40, 30, 75, 10},
		{20, 10, 50, 10},
	} {
		v, pct, beyond, ok := tail(seq(tc.n))
		if !ok || v != tc.value || pct != tc.pct || beyond != tc.beyond {
			t.Errorf("tail(1..%d) = %v p%v beyond %d ok=%v; want %v p%v beyond %d",
				tc.n, v, pct, beyond, ok, tc.value, tc.pct, tc.beyond)
		}
	}
	if _, _, _, ok := tail(seq(19)); ok {
		t.Error("19 samples cannot hold 10 beyond the median")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
	}
	self := selfTimes(spans)
	if self[1] != 100-50-10 {
		t.Errorf("root self time %v, want 40", self[1])
	}
	if self[2] != 30 {
		t.Errorf("leaf self time %v, want its duration 30", self[2])
	}
	if got := durations(spans, "a", 1); len(got) != 1 || got[0] != 30e-6 {
		t.Errorf("durations under root: %v", got)
	}
}
