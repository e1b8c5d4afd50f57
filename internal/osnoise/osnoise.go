// Package osnoise models the "realistic scenario" of the paper's §5
// Figure 4 experiment: the AES target runs as an unprivileged userspace
// process on a full Linux distribution with a GUI, no clock gating, no
// CPU affinity, and an Apache web server saturating both cores with 1000
// HTTP requests per second driven from another machine.
//
// For the power side channel this environment contributes three effects:
//
//   - a raised, fluctuating noise floor from the second core and the
//     un-gated peripherals (uncorrelated with the target's data);
//   - occasional preemptions by the scheduler, which replace a slice of
//     the target's activity with foreign activity and displace the rest
//     of the computation in time, corrupting the affected acquisition;
//   - trigger jitter relative to the core clock.
//
// The model reproduces all three on top of the noiseless per-cycle power
// of an execution (Environment.Expand), the stage the engine's fused
// expansion runs for every non-quiet environment.
package osnoise

import (
	"fmt"
	"math/rand"

	"repro/internal/power"
	"repro/internal/trace"
)

// Environment describes the loaded-system conditions.
type Environment struct {
	// NoiseBoost is the additional Gaussian noise sigma contributed by
	// the second core and peripherals, added to the model's own
	// measurement noise.
	NoiseBoost float64
	// ActivityLevel is the mean extra consumption of the busy system,
	// raising the baseline with slow fluctuations.
	ActivityLevel float64
	// ActivityWobble is the amplitude of the slow baseline fluctuation.
	ActivityWobble float64
	// PreemptProb is the per-execution probability that the scheduler
	// preempts the target mid-computation.
	PreemptProb float64
	// PreemptMin and PreemptMax bound the stolen time in samples; during
	// the stolen slice the trace shows foreign activity and the rest of
	// the computation is displaced beyond the acquisition window.
	PreemptMin, PreemptMax int
	// JitterSamples is the trigger jitter amplitude.
	JitterSamples int
}

// LoadedLinux returns the Figure 4 environment: Ubuntu 16.04 with X, an
// Apache 2.4 server at 1000 queries/s keeping both cores at full load
// (verified with htop in the paper), and the CPU at 120 MHz.
func LoadedLinux() Environment {
	return Environment{
		NoiseBoost:     3.0,
		ActivityLevel:  6.0,
		ActivityWobble: 2.0,
		PreemptProb:    0.02,
		PreemptMin:     64,
		PreemptMax:     512,
		JitterSamples:  1,
	}
}

// Quiet returns a bare-metal-like environment (no extra effects), useful
// as the control in ablations.
func Quiet() Environment { return Environment{} }

// Validate reports the first configuration error.
func (env Environment) Validate() error {
	switch {
	case env.NoiseBoost < 0 || env.ActivityLevel < 0 || env.ActivityWobble < 0:
		return fmt.Errorf("osnoise: negative noise parameters")
	case env.PreemptProb < 0 || env.PreemptProb > 1:
		return fmt.Errorf("osnoise: preempt probability %g out of [0,1]", env.PreemptProb)
	case env.PreemptMin < 0 || env.PreemptMax < env.PreemptMin:
		return fmt.Errorf("osnoise: bad preemption bounds [%d,%d]", env.PreemptMin, env.PreemptMax)
	case env.JitterSamples < 0:
		return fmt.Errorf("osnoise: negative jitter")
	}
	return nil
}

// Scratch is Expand's reusable working storage; the zero value is
// ready, and once grown it makes Expand allocation-free.
type Scratch struct {
	exec trace.Trace // one execution after the first
	z    []float64   // Gaussian draws
}

// norms fills the first n draws of the noise scratch from ns.
func (sc *Scratch) norms(ns power.NormSource, n int) []float64 {
	if cap(sc.z) < n {
		sc.z = make([]float64, n)
	}
	z := sc.z[:n]
	ns.FillNorm(z)
	return z
}

// Expand renders one averaged acquisition of a per-cycle noiseless
// power vector (power.Model.CyclePowers or the replay batch VM) under
// the environment: avg executions (at least one), each expanded with
// the model's measurement noise and then put through the busy baseline,
// the boost noise, a possible preemption and trigger jitter, averaged
// point-wise (the paper's 16-fold on-scope averaging). rng and ns must
// be views of one stream: ns, its bulk Gaussian seam, supplies every
// normal draw and rng the uniform ones, in a fixed order per execution,
// so the acquisition is a pure function of the stream. dst is grown as
// needed and returned.
func (env Environment) Expand(dst trace.Trace, cycles []float64, m *power.Model, rng *rand.Rand, ns power.NormSource, avg int, sc *Scratch) trace.Trace {
	dst = env.execute(dst, cycles, m, rng, ns, sc)
	for rep := 1; rep < avg; rep++ {
		sc.exec = env.execute(sc.exec, cycles, m, rng, ns, sc)
		for i, v := range sc.exec {
			dst[i] += v
		}
	}
	return dst.Scale(1 / float64(max(avg, 1)))
}

// execute renders a single execution into t, in place.
func (env Environment) execute(t trace.Trace, cycles []float64, m *power.Model, rng *rand.Rand, ns power.NormSource, sc *Scratch) trace.Trace {
	t, sc.z = m.AveragedCyclesNorm(t, cycles, ns, sc.z, 1)
	// Busy-system baseline: raised mean with a slow wobble across the
	// trace (other-core activity is low-frequency relative to samples).
	if env.ActivityLevel > 0 || env.ActivityWobble > 0 {
		level := env.ActivityLevel + env.ActivityWobble*(2*rng.Float64()-1)
		for i := range t {
			t[i] += level
		}
	}
	if env.NoiseBoost > 0 {
		for i, z := range sc.norms(ns, len(t)) {
			t[i] += z * env.NoiseBoost
		}
	}
	// Preemption: a random slice starting at a random point is replaced
	// by foreign activity and everything after it is pushed out of the
	// acquisition window (the target resumes later).
	if env.PreemptProb > 0 && rng.Float64() < env.PreemptProb && len(t) > 4 {
		start := rng.Intn(len(t))
		span := env.PreemptMin
		if env.PreemptMax > env.PreemptMin {
			span += rng.Intn(env.PreemptMax - env.PreemptMin + 1)
		}
		at := t[start]
		foreign := min(span, len(t)-start)
		copy(t[start+foreign:], t[start:len(t)-foreign])
		// Foreign process activity: busy, data-uncorrelated.
		for k, z := range sc.norms(ns, foreign) {
			t[start+k] = at + z*(env.NoiseBoost+2)
		}
	}
	if j := env.JitterSamples; j > 0 {
		shift(t, rng.Intn(2*j+1)-j)
	}
	return t
}

// shift delays t by k samples in place (k < 0 advances it), zero-filling
// the vacated positions: trigger jitter.
func shift(t []float64, k int) {
	n := len(t)
	switch {
	case k >= n || -k >= n:
		clear(t)
	case k > 0:
		copy(t[k:], t[:n-k])
		clear(t[:k])
	case k < 0:
		copy(t, t[-k:])
		clear(t[n+k:])
	}
}
