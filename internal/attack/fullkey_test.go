package attack

import (
	"reflect"
	"testing"

	"repro/internal/engine"
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

// TestRecoverKeyScheduleIndependent pins full-key recovery to its
// inputs: at Workers 1, 2 and 4, and with all but one slot of a width-4
// Gate held elsewhere — so the banks' ranking fan-out runs at width 1 —
// RecoverKey returns the same KeyRecovery. At 300 traces and forty
// times the default noise about half the bytes are not yet recovered,
// so their ranks carry the correlations' order.
func TestRecoverKeyScheduleIndependent(t *testing.T) {
	opt := DefaultFig3Options()
	opt.Traces = 300
	opt.Rounds = 1
	opt.Model.NoiseSigma *= 40
	run := func(cfg engine.Config) *KeyRecovery {
		t.Helper()
		o := opt
		o.Config = cfg
		res, err := RecoverKey(target.Default, testKey[:], o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(engine.Config{Workers: 1})
	if want.BytesRecovered() == len(want.Key) {
		t.Fatalf("all %d bytes recovered at %d traces: the ranks pin nothing", len(want.Key), opt.Traces)
	}
	t.Logf("ranks at %d traces: %v", opt.Traces, want.Ranks)
	for _, workers := range []int{2, 4} {
		if got := run(engine.Config{Workers: workers}); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: %+v, want %+v", workers, got, want)
		}
	}

	gate := engine.NewGate(4)
	held, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	go engine.Config{Workers: 4, Gate: gate}.Each(4, func(int) {
		held <- struct{}{}
		<-release
	})
	for range 4 { // three of the four take a gate slot
		<-held
	}
	if got := run(engine.Config{Workers: 4, Gate: gate}); !reflect.DeepEqual(got, want) {
		t.Errorf("under a held gate: %+v, want %+v", got, want)
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
