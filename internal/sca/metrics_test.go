package sca

import (
	"math"
	"testing"
)

func TestRankCurveFirstSuccess(t *testing.T) {
	rc := &RankCurve{TraceCounts: []int{10, 20, 30, 40}, Ranks: []int{12, 0, 0, 0}}
	if got := rc.FirstSuccess(); got != 20 {
		t.Errorf("FirstSuccess = %d, want 20", got)
	}
	rc = &RankCurve{TraceCounts: []int{10, 20}, Ranks: []int{3, 1}}
	if got := rc.FirstSuccess(); got != -1 {
		t.Errorf("FirstSuccess = %d, want -1", got)
	}
	rc = &RankCurve{TraceCounts: []int{10, 20, 30}, Ranks: []int{0, 2, 0}}
	if got := rc.FirstSuccess(); got != 30 {
		t.Errorf("unstable rank: FirstSuccess = %d, want 30", got)
	}
}

func TestGuessingEntropy(t *testing.T) {
	ge, err := GuessingEntropy([]int{0, 0, 0})
	if err != nil || ge != 0 {
		t.Errorf("perfect attacks GE = %v (err %v), want 0", ge, err)
	}
	ge, err = GuessingEntropy([]int{255, 255})
	if err != nil || math.Abs(ge-8) > 0.01 {
		t.Errorf("blind attacks GE = %v, want 8", ge)
	}
	if _, err := GuessingEntropy(nil); err == nil {
		t.Error("empty outcomes must error")
	}
	if _, err := GuessingEntropy([]int{-1}); err == nil {
		t.Error("negative rank must error")
	}
}

func TestSuccessRate(t *testing.T) {
	sr, err := SuccessRate([]int{0, 1, 0, 3})
	if err != nil || sr != 0.5 {
		t.Errorf("SuccessRate = %v (err %v), want 0.5", sr, err)
	}
	if _, err := SuccessRate(nil); err == nil {
		t.Error("empty outcomes must error")
	}
}
