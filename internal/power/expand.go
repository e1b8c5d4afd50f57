package power

// The fused batch expansion path. The lane-parallel replay VM leaves a
// batch of traces as a lane-major [lane][cycle] power block; what used
// to follow — per trace, a scalar ExpandCyclesInto loop drawing one
// rand.NormFloat64 per sample — dominated end-to-end CPA once the VM
// itself was batched. This file expands the whole block with two bulk
// primitives instead: a NormSource fills each trace's noise draws in one
// call over its private stream, and a vector kernel renders samples
// eight at a time (AVX-512 on amd64, behind internal/cpufeat).
//
// An averaged acquisition is one pass over the samples: each sample's
// noiseless signal is computed once, its avg noisy repetitions are
// summed in repetition order in a register, and the sum is scaled by
// 1/avg on its way to the store (at avg 1 the scale is skipped, as
// trace.Scale skips x*1).
//
// Bit-identity. Per sample, the kernels perform exactly the rounded
// operation chain of AveragedCyclesInto: repetition r is emitCycle's
// v_r := Baseline + (p-Baseline)*shape; v_r += z_r*sigma, the sum is
// ((v_0 + v_1) + …) + v_{avg-1}, and the mean is that sum times 1/avg.
// So for a NormSource that replicates the trace's rand stream (engine's
// SplitMix64 sources do, pinned draw for draw) the fused expansion is
// bit-identical to the scalar path. The portable kernel is the
// reference; the AVX-512 kernel is pinned to it by
// TestExpandKernelsFallbackBitIdentical and FuzzAveragedCyclesNorm, and
// REPRO_FORCE_PORTABLE=1 forces the portable path process-wide.

import "repro/internal/trace"

// NormSource supplies standard-normal draws in bulk: FillNorm fills dst
// with len(dst) consecutive draws from the underlying stream, exactly
// the values successive rand.Rand.NormFloat64 calls on the same stream
// would produce. The engine's per-trace SplitMix64 sources implement it.
type NormSource interface {
	FillNorm(dst []float64)
}

// AveragedCyclesNorm is AveragedCyclesInto drawing its measurement noise
// in bulk from ns instead of one rand call per sample: avg expansions of
// the per-cycle power vector with independent noise, averaged
// point-wise. dst is grown as needed and returned; z is the caller's
// noise scratch, likewise grown and returned for reuse. For a NormSource
// replicating the trace's rand stream the result is bit-identical to
// AveragedCyclesInto(dst, tmp, cycles, rng, avg).
func (m *Model) AveragedCyclesNorm(dst trace.Trace, cycles []float64, ns NormSource, z []float64, avg int) (trace.Trace, []float64) {
	if avg < 1 {
		avg = 1
	}
	spc := m.samplesPerCycle()
	need := len(cycles) * spc
	if cap(dst) < need {
		dst = make(trace.Trace, need)
	} else {
		dst = dst[:need]
	}
	var shapeBuf [16]float64
	shape := m.pulseShape(shapeBuf[:0])

	// All avg repetitions' noise comes from one fill: repetition r
	// draws z[r·need:(r+1)·need], the same stream order as avg separate
	// fills. A nil noise buffer expands noiselessly.
	var zr []float64
	sigma := 0.0
	if ns != nil && m.NoiseSigma > 0 {
		if cap(z) < avg*need {
			z = make([]float64, avg*need)
		} else {
			z = z[:avg*need]
		}
		ns.FillNorm(z)
		zr, sigma = z, m.NoiseSigma
	}
	expandNorm(dst, cycles, shape, m.Baseline, sigma, zr, avg)
	return dst, z
}

// BatchExpand is one lane batch of the fused expansion: the lane-major
// cycle-power block as produced by replay.BatchVM (Rows[lane] is the
// lane's per-cycle power), the per-lane destination traces and private
// noise streams, the per-acquisition averaging factor, and a shared
// noise scratch buffer.
type BatchExpand struct {
	// Rows is the lane-major power block; only Rows[:Lanes] is read.
	Rows [][]float64
	// Out holds each lane's destination trace, grown in place.
	Out []trace.Trace
	// Noise holds each lane's private normal stream; a nil entry (or
	// NoiseSigma 0) expands that lane noiselessly.
	Noise []NormSource
	// Lanes is the number of live lanes.
	Lanes int
	// Avg is the per-acquisition averaging factor (clamped to >= 1).
	Avg int
	// Z is the shared noise scratch, grown in place across calls.
	Z []float64
}

// ExpandCyclesBatch expands a whole lane batch — the [lane][cycle]
// power block a replay batch leaves behind — into sample-major power
// traces in one pass: per lane in ascending order, bulk noise fill plus
// vector expansion, bit-identical to AveragedCyclesInto over the lane's
// cycle row and rand stream. The per-trace scalar expansion loop this
// replaces was the dominant cost of batched CPA synthesis.
func (m *Model) ExpandCyclesBatch(b *BatchExpand) {
	for lane := 0; lane < b.Lanes; lane++ {
		b.Out[lane], b.Z = m.AveragedCyclesNorm(b.Out[lane], b.Rows[lane], b.Noise[lane], b.Z, b.Avg)
	}
}

// expandNormGeneric is the portable expansion kernel — the bitwise
// reference the vector kernel is pinned to. It renders the averaged
// acquisition of cycles into dst in one pass: per sample it computes
// emitCycle's signal baseline + (p-baseline)*sh once, adds repetition
// r's noise z[r·stride+s]*sigma to it when a noise buffer is present,
// sums the avg repetitions in repetition order, and stores the sum times
// 1/avg (the bare sum at avg 1). stride is the sample count of one full
// repetition, so dst, cycles and z may start at the same offset into a
// longer acquisition.
func expandNormGeneric(dst, cycles, shape []float64, baseline, sigma float64, z []float64, stride, avg int) {
	spc := len(shape)
	scale := 1 / float64(avg)
	for c, p := range cycles {
		for k, sh := range shape {
			s := c*spc + k
			sig := baseline + (p-baseline)*sh
			acc := sig
			if z != nil {
				acc += z[s] * sigma
			}
			for r := 1; r < avg; r++ {
				v := sig
				if z != nil {
					v += z[r*stride+s] * sigma
				}
				acc += v
			}
			if avg > 1 {
				acc *= scale
			}
			dst[s] = acc
		}
	}
}
