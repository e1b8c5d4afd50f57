// Package power synthesizes power-consumption traces from pipeline
// component timelines, following the leakage abstraction the paper adopts
// in §4: gates driving large capacitive loads dominate the consumption,
// modelled by the Hamming distance between the values asserted on their
// outputs in subsequent clock cycles, plus Hamming-weight terms for
// zero-precharged nets (the ALU outputs and the shifter buffer).
package power

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/pipeline"
	"repro/internal/trace"
)

// HW returns the Hamming weight of v.
func HW(v uint32) int { return bits.OnesCount32(v) }

// HD returns the Hamming distance between a and b.
func HD(a, b uint32) int { return bits.OnesCount32(a ^ b) }

// Model maps a pipeline timeline to instantaneous power. Per component c
// driven at cycle t, the consumption is
//
//	HDWeight[c] * HD(value[t-1], value[t]) + HWWeight[c] * HW(value[t])
//
// plus a constant baseline and Gaussian noise per sample.
type Model struct {
	// HDWeights scales the transition (Hamming distance) leakage of each
	// component. Components that are not re-driven hold their value, so
	// they contribute nothing that cycle.
	HDWeights [pipeline.NumComponents]float64
	// HWWeights scales value (Hamming weight) leakage, applied only in
	// cycles where the component is driven — modelling nets precharged
	// to zero before each assertion (§4.1 on the ALU result nets).
	HWWeights [pipeline.NumComponents]float64
	// Baseline is the static consumption added to every sample.
	Baseline float64
	// NoiseSigma is the standard deviation of the additive Gaussian
	// measurement noise.
	NoiseSigma float64
	// SamplesPerCycle is the oversampling factor of the acquisition
	// relative to the core clock (the paper samples 500 MS/s against a
	// 120 MHz clock, slightly above 4x).
	SamplesPerCycle int
}

// DefaultModel returns weights matching the paper's qualitative
// observations: transition leakage on the IS/EX buses, ALU input latches,
// EX/WB buses, MDR and align buffer; Hamming-weight leakage on the ALU
// outputs; shifter-buffer leakage at one tenth of the others (§4.1); the
// store/MDR path strongest ("the leakage of store operations, which was
// the highest among the detected ones", §5); no measurable register-file
// or AGU leakage.
func DefaultModel() Model {
	var m Model
	for _, c := range []pipeline.Component{pipeline.ISBus0, pipeline.ISBus1, pipeline.ISBus2} {
		m.HDWeights[c] = 1.0
	}
	for _, c := range []pipeline.Component{pipeline.ALUIn00, pipeline.ALUIn01, pipeline.ALUIn10, pipeline.ALUIn11} {
		m.HDWeights[c] = 1.0
	}
	m.HWWeights[pipeline.ALUOut0] = 1.0
	m.HWWeights[pipeline.ALUOut1] = 1.0
	m.HWWeights[pipeline.ShiftBuf] = 0.1
	m.HDWeights[pipeline.WBBus0] = 1.2
	m.HDWeights[pipeline.WBBus1] = 1.2
	m.HDWeights[pipeline.MDR] = 1.6
	m.HDWeights[pipeline.AlignBuf] = 1.0
	// RF read ports and AGU: tracked, not leaking (paper §4.1).
	m.Baseline = 4.0
	m.NoiseSigma = 1.0
	m.SamplesPerCycle = 4
	return m
}

// Validate reports the first configuration error.
func (m *Model) Validate() error {
	if m.SamplesPerCycle < 1 {
		return fmt.Errorf("power: samples per cycle must be >= 1, got %d", m.SamplesPerCycle)
	}
	if m.NoiseSigma < 0 {
		return fmt.Errorf("power: noise sigma must be >= 0, got %g", m.NoiseSigma)
	}
	return nil
}

// CyclePower returns the noiseless instantaneous power of cycle i in the
// timeline (i == 0 compares against an all-zero previous state).
func (m *Model) CyclePower(tl pipeline.Timeline, i int) float64 {
	p := m.Baseline
	cur := &tl[i]
	var prev *pipeline.Snapshot
	if i > 0 {
		prev = &tl[i-1]
	}
	for c := pipeline.Component(0); c < pipeline.NumComponents; c++ {
		if !cur.IsDriven(c) {
			continue
		}
		if w := m.HDWeights[c]; w != 0 {
			var before uint32
			if prev != nil {
				before = prev.Values[c]
			}
			p += w * float64(HD(before, cur.Values[c]))
		}
		if w := m.HWWeights[c]; w != 0 {
			p += w * float64(HW(cur.Values[c]))
		}
	}
	return p
}

// pulse shapes one cycle's power across the oversampled points: a fast
// rise and a capacitive decay, the usual shape of a current spike through
// a decoupling capacitor.
func pulse(k, n int) float64 {
	if n == 1 {
		return 1
	}
	x := float64(k) / float64(n)
	return (1 - x) * (1 - x)
}

// Synthesize renders the timeline into a power trace using rng for the
// measurement noise. A nil rng yields a noiseless trace.
func (m *Model) Synthesize(tl pipeline.Timeline, rng *rand.Rand) trace.Trace {
	return m.SynthesizeInto(nil, tl, rng)
}

// SynthesizeInto is Synthesize writing into dst's storage when its
// capacity suffices (every sample is overwritten), the allocation-free
// form for pooled buffers on the synthesis hot path. It returns the
// trace, which aliases dst when no growth was needed, and is
// bit-identical to Synthesize for the same rng stream.
func (m *Model) SynthesizeInto(dst trace.Trace, tl pipeline.Timeline, rng *rand.Rand) trace.Trace {
	n := m.samplesPerCycle()
	need := len(tl) * n
	if cap(dst) < need {
		dst = make(trace.Trace, need)
	} else {
		dst = dst[:need]
	}

	// The pulse shape and the set of leaking components are loop
	// constants; hoisting them off the per-cycle path changes no values.
	var shapeBuf [16]float64
	shape := m.pulseShape(shapeBuf[:0])
	var activeBuf [pipeline.NumComponents]pipeline.Component
	active := m.activeComponents(activeBuf[:0])

	noise := rng != nil && m.NoiseSigma > 0
	var prev *pipeline.Snapshot
	for i := range tl {
		cur := &tl[i]
		p := m.cyclePower(cur, prev, active)
		prev = cur
		m.emitCycle(dst[i*n:i*n+n], p, shape, rng, noise)
	}
	return dst
}

// samplesPerCycle returns the clamped oversampling factor.
func (m *Model) samplesPerCycle() int {
	if m.SamplesPerCycle < 1 {
		return 1
	}
	return m.SamplesPerCycle
}

// pulseShape appends the per-cycle pulse shape to buf.
func (m *Model) pulseShape(buf []float64) []float64 {
	n := m.samplesPerCycle()
	if n > cap(buf) {
		buf = make([]float64, 0, n)
	}
	for k := 0; k < n; k++ {
		buf = append(buf, pulse(k, n))
	}
	return buf
}

// activeComponents appends the components with a nonzero weight to buf
// in ascending component order — the canonical per-cycle summation
// order of every synthesis path.
func (m *Model) activeComponents(buf []pipeline.Component) []pipeline.Component {
	for c := pipeline.Component(0); c < pipeline.NumComponents; c++ {
		if m.HDWeights[c] != 0 || m.HWWeights[c] != 0 {
			buf = append(buf, c)
		}
	}
	return buf
}

// cyclePower is the per-cycle noiseless power: the same sum CyclePower
// computes, restricted to components with a nonzero weight — the
// skipped terms contributed nothing, so the floating-point result is
// identical. Contributions add in ascending component order, the HD
// term before the HW term per component.
func (m *Model) cyclePower(cur, prev *pipeline.Snapshot, active []pipeline.Component) float64 {
	p := m.Baseline
	for _, c := range active {
		if !cur.IsDriven(c) {
			continue
		}
		if w := m.HDWeights[c]; w != 0 {
			var before uint32
			if prev != nil {
				before = prev.Values[c]
			}
			p += w * float64(HD(before, cur.Values[c]))
		}
		if w := m.HWWeights[c]; w != 0 {
			p += w * float64(HW(cur.Values[c]))
		}
	}
	return p
}

// emitCycle renders one cycle's samples: the pulse-shaped noiseless
// power plus, when noise is on, one Gaussian draw per sample. Shared by
// the timeline and cycle-power expansion paths so their bits cannot
// drift apart.
func (m *Model) emitCycle(dst []float64, p float64, shape []float64, rng *rand.Rand, noise bool) {
	for k, sh := range shape {
		v := m.Baseline + (p-m.Baseline)*sh
		if noise {
			v += rng.NormFloat64() * m.NoiseSigma
		}
		dst[k] = v
	}
}

// CyclePowers writes the noiseless per-cycle power of the timeline into
// dst (grown as needed) and returns it: dst[i] is exactly the p value
// SynthesizeInto computes for cycle i. It is the scalar reference for
// the replay batch VM's fused accumulation, and the input format of
// ExpandCyclesInto.
func (m *Model) CyclePowers(dst []float64, tl pipeline.Timeline) []float64 {
	if cap(dst) < len(tl) {
		dst = make([]float64, len(tl))
	} else {
		dst = dst[:len(tl)]
	}
	var activeBuf [pipeline.NumComponents]pipeline.Component
	active := m.activeComponents(activeBuf[:0])
	var prev *pipeline.Snapshot
	for i := range tl {
		cur := &tl[i]
		dst[i] = m.cyclePower(cur, prev, active)
		prev = cur
	}
	return dst
}

// ExpandCyclesInto renders a per-cycle noiseless power vector — as
// produced by CyclePowers or replay.BatchVM — into a power trace,
// drawing measurement noise from rng exactly as SynthesizeInto does.
// For cycles equal to CyclePowers(nil, tl) and the same rng stream, the
// result is bit-identical to SynthesizeInto(dst, tl, rng): expansion is
// the same code path, only the per-cycle power arrives precomputed.
func (m *Model) ExpandCyclesInto(dst trace.Trace, cycles []float64, rng *rand.Rand) trace.Trace {
	n := m.samplesPerCycle()
	need := len(cycles) * n
	if cap(dst) < need {
		dst = make(trace.Trace, need)
	} else {
		dst = dst[:need]
	}
	var shapeBuf [16]float64
	shape := m.pulseShape(shapeBuf[:0])
	noise := rng != nil && m.NoiseSigma > 0
	for i, p := range cycles {
		m.emitCycle(dst[i*n:i*n+n], p, shape, rng, noise)
	}
	return dst
}

// AveragedCyclesInto is SynthesizeAveragedInto fed from a per-cycle
// power vector instead of a timeline: avg expansions with independent
// noise, averaged point-wise. Bit-identical to SynthesizeAveragedInto
// for matching cycles and rng stream — and cheaper, because the
// HW/HD sweep behind the cycle powers is paid once, not avg times.
func (m *Model) AveragedCyclesInto(dst, tmp trace.Trace, cycles []float64, rng *rand.Rand, avg int) (out, scratch trace.Trace) {
	if avg < 1 {
		avg = 1
	}
	acc := m.ExpandCyclesInto(dst, cycles, rng)
	for i := 1; i < avg; i++ {
		tmp = m.ExpandCyclesInto(tmp, cycles, rng)
		_ = acc.AddInPlace(tmp)
	}
	return acc.Scale(1 / float64(avg)), tmp
}

// SynthesizeAveraged renders the timeline avg times with independent
// noise and returns the point-wise mean, reproducing the oscilloscope
// averaging of the paper's acquisitions.
func (m *Model) SynthesizeAveraged(tl pipeline.Timeline, rng *rand.Rand, avg int) trace.Trace {
	out, _ := m.SynthesizeAveragedInto(nil, nil, tl, rng, avg)
	return out
}

// SynthesizeAveragedInto is SynthesizeAveraged reusing dst as the
// accumulation buffer and tmp as the per-repetition scratch. It returns
// both so callers can keep them pooled; the result is bit-identical to
// SynthesizeAveraged for the same rng stream.
func (m *Model) SynthesizeAveragedInto(dst, tmp trace.Trace, tl pipeline.Timeline, rng *rand.Rand, avg int) (out, scratch trace.Trace) {
	if avg < 1 {
		avg = 1
	}
	acc := m.SynthesizeInto(dst, tl, rng)
	for i := 1; i < avg; i++ {
		tmp = m.SynthesizeInto(tmp, tl, rng)
		// Lengths always match: same timeline, same model.
		_ = acc.AddInPlace(tmp)
	}
	return acc.Scale(1 / float64(avg)), tmp
}
