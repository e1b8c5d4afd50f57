package osnoise

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/trace"
)

func timeline(t *testing.T) pipeline.Timeline {
	t.Helper()
	c := pipeline.MustNew(pipeline.DefaultConfig(), nil)
	c.SetRegs(0, 0xAA, 0x55, 0, 0x0F, 0xF0)
	res, err := c.Run(isa.MustAssemble(`
		add r0, r1, r2
		add r3, r4, r5
		eor r6, r1, r4
		nop
		nop
	`))
	if err != nil {
		t.Fatal(err)
	}
	return res.Timeline
}

// randNorm is the NormSource view of a rand.Rand: successive
// NormFloat64 draws, which is what the engine's bulk sources replicate.
type randNorm struct{ *rand.Rand }

func (r randNorm) FillNorm(dst []float64) {
	for i := range dst {
		dst[i] = r.NormFloat64()
	}
}

// acquire runs the production stage on the timeline's cycle powers.
func acquire(env Environment, tl pipeline.Timeline, m *power.Model, rng *rand.Rand, avg int) trace.Trace {
	return env.Expand(nil, m.CyclePowers(nil, tl), m, rng, randNorm{rng}, avg, &Scratch{})
}

func TestValidate(t *testing.T) {
	if err := LoadedLinux().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Quiet().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Environment{
		{NoiseBoost: -1},
		{PreemptProb: 2},
		{PreemptMin: 5, PreemptMax: 1},
		{JitterSamples: -1},
	}
	for _, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("environment %+v must be rejected", e)
		}
	}
}

func TestQuietMatchesPlainSynthesis(t *testing.T) {
	tl := timeline(t)
	m := power.DefaultModel()
	m.NoiseSigma = 0
	env := Quiet()
	got := acquire(env, tl, &m, rand.New(rand.NewSource(1)), 1)
	want := m.Synthesize(tl, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestLoadedLinuxRaisesBaseline(t *testing.T) {
	tl := timeline(t)
	m := power.DefaultModel()
	m.NoiseSigma = 0.5
	rng := rand.New(rand.NewSource(7))
	env := LoadedLinux()
	env.PreemptProb = 0 // isolate the baseline effect
	env.JitterSamples = 0

	quietMean, loadedMean := 0.0, 0.0
	const reps = 50
	for i := 0; i < reps; i++ {
		quietMean += acquire(Quiet(), tl, &m, rng, 4).Mean()
		loadedMean += acquire(env, tl, &m, rng, 4).Mean()
	}
	if loadedMean <= quietMean {
		t.Errorf("loaded mean %v must exceed quiet mean %v", loadedMean/reps, quietMean/reps)
	}
	if diff := loadedMean/reps - quietMean/reps; math.Abs(diff-env.ActivityLevel) > 1.5 {
		t.Errorf("baseline raise %v, want about %v", diff, env.ActivityLevel)
	}
}

func TestPreemptionCorruptsTail(t *testing.T) {
	tl := timeline(t)
	m := power.DefaultModel()
	m.NoiseSigma = 0
	env := Environment{PreemptProb: 1, PreemptMin: 4, PreemptMax: 4}
	rng := rand.New(rand.NewSource(3))
	ref := m.Synthesize(tl, nil)
	tr := acquire(env, tl, &m, rng, 1)
	diff := 0
	for i := range ref {
		if tr[i] != ref[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("guaranteed preemption left the trace untouched")
	}
}

func TestAveragingStillConverges(t *testing.T) {
	tl := timeline(t)
	m := power.DefaultModel()
	m.NoiseSigma = 1
	env := LoadedLinux()
	env.PreemptProb = 0
	env.JitterSamples = 0
	rng := rand.New(rand.NewSource(11))
	ref := func() float64 {
		mm := m
		mm.NoiseSigma = 0
		return mm.Synthesize(tl, nil)[0] + env.ActivityLevel
	}()
	avg := acquire(env, tl, &m, rng, 4096)
	if d := math.Abs(avg[0] - ref); d > 1.0 {
		t.Errorf("averaged sample off by %v (wobble bounds the floor)", d)
	}
}
