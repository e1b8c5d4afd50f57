package main

import (
	"math"
	"slices"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the exclusive
// method — the default of Python's statistics.quantiles(xs, n=4) — so
// spreads computed here match ones computed with Python.
// One value is its own quartiles; no values give NaN.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	m := ld + 1
	at := func(i int) float64 {
		// Python's formula verbatim, including its extrapolation past
		// the end samples when the position is clamped.
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tail returns the highest ladder percentile of xs with at least
// minBeyond samples beyond it, its nearest-rank value, and how many
// samples lie beyond. ok is false when even the median has fewer than
// minBeyond samples beyond it.
func tail(xs []float64) (value, pct float64, beyond int, ok bool) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n))) // nearest rank, 1-based
		if rank < 1 || n-rank < minBeyond {
			continue
		}
		return s[rank-1], p, n - rank, true
	}
	return math.NaN(), 0, 0, false
}

// sum returns the total of xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
