package power

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/trace"
	"repro/internal/znorm"
)

// zsrc is a SplitMix64 stream usable both as a rand.Source64 (for the
// scalar reference path) and as a NormSource (for the fused path) — the
// same dual role engine's per-trace sources play.
type zsrc struct{ state uint64 }

func (s *zsrc) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	x := s.state
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
func (s *zsrc) Int63() int64           { return int64(s.Uint64() >> 1) }
func (s *zsrc) Seed(seed int64)        { s.state = uint64(seed) }
func (s *zsrc) FillNorm(dst []float64) { znorm.Fill(dst, &s.state) }

// expandModel builds a model with the given pulse resolution and noise.
func expandModel(spc int, sigma float64) *Model {
	m := DefaultModel()
	m.SamplesPerCycle = spc
	m.NoiseSigma = sigma
	return &m
}

// TestAveragedCyclesNormMatchesScalar pins the fused expansion to the
// scalar path it replaces: over the same per-trace stream,
// AveragedCyclesNorm must reproduce AveragedCyclesInto bit for bit —
// across pulse resolutions (vector kernel at 4, portable otherwise),
// averaging factors, odd cycle counts, and the noiseless gate.
func TestAveragedCyclesNormMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, spc := range []int{1, 3, 4, 5} {
		for _, sigma := range []float64{0, 1.5} {
			for _, avg := range []int{1, 2, 5} {
				for _, nCycles := range []int{1, 2, 7, 64, 129} {
					m := expandModel(spc, sigma)
					cycles := make([]float64, nCycles)
					for i := range cycles {
						cycles[i] = m.Baseline + rng.NormFloat64()*3
					}
					state := uint64(rng.Int63())

					ref, _ := m.AveragedCyclesInto(nil, nil, cycles, rand.New(&zsrc{state: state}), avg)
					var z []float64
					var got trace.Trace
					got, z = m.AveragedCyclesNorm(got, cycles, &zsrc{state: state}, z, avg)

					if len(got) != len(ref) {
						t.Fatalf("spc=%d sigma=%g avg=%d n=%d: length %d, want %d", spc, sigma, avg, nCycles, len(got), len(ref))
					}
					for i := range ref {
						if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
							t.Fatalf("spc=%d sigma=%g avg=%d n=%d sample %d: fused %x (%g), scalar %x (%g)",
								spc, sigma, avg, nCycles, i,
								math.Float64bits(got[i]), got[i], math.Float64bits(ref[i]), ref[i])
						}
					}
					_ = z
				}
			}
		}
	}
}

// TestExpandCyclesBatchMatchesScalar drives the lane-major block API
// against per-lane scalar expansion: every lane of the batch must match
// AveragedCyclesInto over its own stream, with the shared Z scratch
// reused across lanes.
func TestExpandCyclesBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := expandModel(4, 1.0)
	const lanes, nCycles, avg = 9, 33, 3

	b := &BatchExpand{
		Rows:  make([][]float64, lanes),
		Out:   make([]trace.Trace, lanes),
		Noise: make([]NormSource, lanes),
		Lanes: lanes,
		Avg:   avg,
	}
	states := make([]uint64, lanes)
	for l := 0; l < lanes; l++ {
		row := make([]float64, nCycles)
		for i := range row {
			row[i] = m.Baseline + rng.NormFloat64()*3
		}
		b.Rows[l] = row
		states[l] = uint64(rng.Int63())
		b.Noise[l] = &zsrc{state: states[l]}
	}
	m.ExpandCyclesBatch(b)

	for l := 0; l < lanes; l++ {
		ref, _ := m.AveragedCyclesInto(nil, nil, b.Rows[l], rand.New(&zsrc{state: states[l]}), avg)
		for i := range ref {
			if math.Float64bits(b.Out[l][i]) != math.Float64bits(ref[i]) {
				t.Fatalf("lane %d sample %d: fused %g, scalar %g", l, i, b.Out[l][i], ref[i])
			}
		}
	}
}

// BenchmarkAveragedCyclesNorm measures one Table 2 acquisition on the
// fused path: 28 cycles at four samples per cycle (112 samples),
// averaged over 16 noisy executions, in ns per sample drawn.
func BenchmarkAveragedCyclesNorm(b *testing.B) {
	const nCycles, avg = 28, 16
	m := expandModel(4, 1.5)
	rng := rand.New(rand.NewSource(1))
	cycles := make([]float64, nCycles)
	for i := range cycles {
		cycles[i] = m.Baseline + rng.NormFloat64()*3
	}
	src := &zsrc{state: 0x243F6A8885A308D3}
	var dst trace.Trace
	var z []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, z = m.AveragedCyclesNorm(dst, cycles, src, z, avg)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nCycles*4*avg), "ns/draw")
}
