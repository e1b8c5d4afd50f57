package osnoise

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/power"
	"repro/internal/trace"
)

// acquireRef is the reference acquisition Expand is pinned to: avg
// executions rendered by synth, each put through oneRef, accumulated
// with AddInPlace and scaled — every draw straight from rng, one
// NormFloat64 per Gaussian sample.
func acquireRef(env Environment, synth func(*rand.Rand) trace.Trace, rng *rand.Rand, avg int) trace.Trace {
	if avg < 1 {
		avg = 1
	}
	var acc trace.Trace
	for i := 0; i < avg; i++ {
		t := oneRef(env, synth, rng)
		if acc == nil {
			acc = t
		} else {
			_ = acc.AddInPlace(t)
		}
	}
	return acc.Scale(1 / float64(avg))
}

// oneRef renders a single execution under the environment into fresh
// storage.
func oneRef(env Environment, synth func(*rand.Rand) trace.Trace, rng *rand.Rand) trace.Trace {
	t := synth(rng)
	if env.ActivityLevel > 0 || env.ActivityWobble > 0 {
		phase := rng.Float64()
		level := env.ActivityLevel + env.ActivityWobble*(2*phase-1)
		for i := range t {
			t[i] += level
		}
	}
	if env.NoiseBoost > 0 {
		for i := range t {
			t[i] += rng.NormFloat64() * env.NoiseBoost
		}
	}
	if env.PreemptProb > 0 && rng.Float64() < env.PreemptProb && len(t) > 4 {
		start := rng.Intn(len(t))
		span := env.PreemptMin
		if env.PreemptMax > env.PreemptMin {
			span += rng.Intn(env.PreemptMax - env.PreemptMin + 1)
		}
		shifted := make(trace.Trace, len(t))
		copy(shifted, t[:start])
		for i := start; i < len(t); i++ {
			j := i - span
			if j >= start {
				shifted[i] = t[j]
			} else {
				shifted[i] = t[start] + rng.NormFloat64()*(env.NoiseBoost+2)
			}
		}
		t = shifted
	}
	if env.JitterSamples > 0 {
		t = t.Shift(rng.Intn(2*env.JitterSamples+1) - env.JitterSamples)
	}
	return t
}

// acquireCyclesRef is acquireRef over a per-cycle power vector.
func acquireCyclesRef(env Environment, cycles []float64, m *power.Model, rng *rand.Rand, avg int) trace.Trace {
	return acquireRef(env, func(rng *rand.Rand) trace.Trace { return m.ExpandCyclesInto(nil, cycles, rng) }, rng, avg)
}

func sameBits(t *testing.T, what string, got, want trace.Trace) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: lengths %d vs %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s sample %d: %x vs %x", what, i, got[i], want[i])
		}
	}
}

// TestAcquireCyclesBitIdenticalToAcquire pins the reference itself to
// the timeline: fed the timeline's own cycle powers and the same rng
// stream, the cycle-power reference reproduces the timeline synthesis
// bit for bit — noise floor, preemption draws and trigger jitter
// included.
func TestAcquireCyclesBitIdenticalToAcquire(t *testing.T) {
	tl := timeline(t)
	m := power.DefaultModel()
	cy := m.CyclePowers(nil, tl)
	for _, env := range []Environment{Quiet(), LoadedLinux()} {
		// Several seeds so the 2% preemption branch is exercised.
		for seed := int64(0); seed < 40; seed++ {
			a := acquireRef(env, func(rng *rand.Rand) trace.Trace { return m.Synthesize(tl, rng) }, rand.New(rand.NewSource(seed)), 4)
			b := acquireCyclesRef(env, cy, &m, rand.New(rand.NewSource(seed)), 4)
			sameBits(t, "cycles vs timeline", b, a)
		}
	}
}

// TestExpandMatchesReference pins the in-place, bulk-draw stage against
// the reference over the same stream: guaranteed preemptions whose
// spans stay inside the trace, straddle its end or swallow all of it,
// jitter up to ±J, averaging 1 and 16, and the noiseless model. The
// stream must also end at the same position, so later draws agree.
func TestExpandMatchesReference(t *testing.T) {
	tl := timeline(t)
	n := len(tl) * power.DefaultModel().SamplesPerCycle
	loaded := LoadedLinux()
	preempt := func(lo, hi int) Environment {
		e := loaded
		e.PreemptProb, e.PreemptMin, e.PreemptMax = 1, lo, hi
		return e
	}
	jitter := loaded
	jitter.PreemptProb, jitter.JitterSamples = 0, 3
	envs := map[string]Environment{
		"quiet":          Quiet(),
		"loaded":         loaded,
		"preempt inside": preempt(1, 4),
		"preempt across": preempt(n/4, n),
		"preempt past":   preempt(n, 2*n),
		"preempt zero":   preempt(0, 0),
		"jitter":         jitter,
		"jitter only":    {JitterSamples: 2},
		"wide jitter":    {JitterSamples: n + 3},
	}
	for _, sigma := range []float64{power.DefaultModel().NoiseSigma, 0} {
		m := power.DefaultModel()
		m.NoiseSigma = sigma
		cy := m.CyclePowers(nil, tl)
		for name, env := range envs {
			for _, avg := range []int{1, 16} {
				var sc Scratch
				var dst trace.Trace
				for seed := int64(0); seed < 30; seed++ {
					ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					want := acquireCyclesRef(env, cy, &m, ra, avg)
					dst = env.Expand(dst[:0], cy, &m, rb, randNorm{rb}, avg, &sc)
					sameBits(t, name, dst, want)
					if ra.Uint64() != rb.Uint64() {
						t.Fatalf("%s sigma=%g avg=%d seed %d: stream positions differ after the acquisition", name, sigma, avg, seed)
					}
				}
			}
		}
	}
}

// TestShiftMatchesTraceShift pins the in-place jitter against
// trace.Shift at every offset up to and past the trace length.
func TestShiftMatchesTraceShift(t *testing.T) {
	src := trace.Trace{1, 2, 3, 4, 5}
	for k := -7; k <= 7; k++ {
		got := src.Clone()
		shift(got, k)
		sameBits(t, "shift", got, src.Shift(k))
	}
}

// TestExpandSteadyStateAllocs: with dst and the scratch grown, an
// acquisition allocates nothing, preemption included.
func TestExpandSteadyStateAllocs(t *testing.T) {
	tl := timeline(t)
	m := power.DefaultModel()
	cy := m.CyclePowers(nil, tl)
	env := LoadedLinux()
	env.PreemptProb = 1
	rng := rand.New(rand.NewSource(5))
	var sc Scratch
	dst := env.Expand(nil, cy, &m, rng, randNorm{rng}, 4, &sc)
	if a := testing.AllocsPerRun(20, func() { dst = env.Expand(dst, cy, &m, rng, randNorm{rng}, 4, &sc) }); a != 0 {
		t.Errorf("Expand allocates %.1f per acquisition", a)
	}
}
