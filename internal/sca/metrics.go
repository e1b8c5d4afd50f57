package sca

import (
	"errors"
	"fmt"
	"math"
)

// RankCurve tracks how a hypothesis's rank evolves with the number of
// traces — the standard way to report attack efficiency.
type RankCurve struct {
	// TraceCounts are the evaluation points.
	TraceCounts []int
	// Ranks holds the target hypothesis's rank at each point (0 = best).
	Ranks []int
}

// FirstSuccess returns the smallest evaluated trace count at which the
// target ranked first and stayed first to the end, or -1.
func (rc *RankCurve) FirstSuccess() int {
	last := -1
	for i := len(rc.Ranks) - 1; i >= 0; i-- {
		if rc.Ranks[i] != 0 {
			break
		}
		last = rc.TraceCounts[i]
	}
	return last
}

// GuessingEntropy returns the average log2 rank (plus one) of the correct
// hypothesis over a set of independent attack outcomes — the standard
// multi-experiment metric.
func GuessingEntropy(ranks []int) (float64, error) {
	if len(ranks) == 0 {
		return 0, errors.New("sca: no outcomes")
	}
	sum := 0.0
	for _, r := range ranks {
		if r < 0 {
			return 0, fmt.Errorf("sca: negative rank %d", r)
		}
		sum += float64(r) + 1
	}
	return math.Log2(sum / float64(len(ranks))), nil
}

// SuccessRate returns the fraction of outcomes with rank 0.
func SuccessRate(ranks []int) (float64, error) {
	if len(ranks) == 0 {
		return 0, errors.New("sca: no outcomes")
	}
	ok := 0
	for _, r := range ranks {
		if r == 0 {
			ok++
		}
	}
	return float64(ok) / float64(len(ranks)), nil
}
