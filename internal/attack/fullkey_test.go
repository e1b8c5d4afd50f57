package attack

import (
	"testing"

	"repro/internal/target"
)

func TestRecoverFullKey(t *testing.T) {
	if testing.Short() {
		t.Skip("full-key recovery is slow")
	}
	opt := DefaultFig3Options()
	opt.Traces = 700
	opt.Rounds = 1
	res, err := RecoverKey(target.Default, testKey[:], opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success() {
		t.Fatalf("recovered %d/16 bytes: %x vs %x (GE %.2f)",
			res.BytesRecovered(), res.Recovered, res.Key, res.GuessingEntropy())
	}
	if res.GuessingEntropy() != 0 {
		t.Errorf("guessing entropy %v, want 0", res.GuessingEntropy())
	}
}

func TestRecoverFullKeyValidation(t *testing.T) {
	opt := DefaultFig3Options()
	opt.Traces = 2
	if _, err := RecoverKey(target.Default, testKey[:], opt); err == nil {
		t.Error("too few traces must be rejected")
	}
	for _, avg := range []int{0, -3} {
		opt = DefaultFig3Options()
		opt.Averages = avg
		if _, err := RecoverKey(target.Default, testKey[:], opt); err == nil {
			t.Errorf("averages %d must be rejected, not defaulted", avg)
		}
	}
}

func TestRankEvolutionConverges(t *testing.T) {
	opt := DefaultFig3Options()
	opt.Rounds = 1
	curve, err := RankEvolution(target.Default, testKey[:], opt, []int{25, 100, 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Ranks) != 3 {
		t.Fatalf("curve has %d points", len(curve.Ranks))
	}
	last := curve.Ranks[len(curve.Ranks)-1]
	if last != 0 {
		t.Errorf("rank at 400 traces = %d, want 0", last)
	}
	if curve.Ranks[0] < 0 {
		t.Error("negative rank")
	}
	if fs := curve.FirstSuccess(); fs <= 0 || fs > 400 {
		t.Errorf("FirstSuccess = %d", fs)
	}
}

func TestRankEvolutionValidation(t *testing.T) {
	if _, err := RankEvolution(target.Default, testKey[:], DefaultFig3Options(), nil); err == nil {
		t.Error("empty counts must be rejected")
	}
	for _, avg := range []int{0, -3} {
		opt := DefaultFig3Options()
		opt.Averages = avg
		if _, err := RankEvolution(target.Default, testKey[:], opt, []int{25}); err == nil {
			t.Errorf("averages %d must be rejected, not defaulted", avg)
		}
	}
}
