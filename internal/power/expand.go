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
// Bit-identity. Every kernel performs, per sample, exactly the rounded
// operation sequence of emitCycle — v := Baseline + (p-Baseline)*shape;
// v += z*sigma — and the averaging accumulates and scales exactly as
// AveragedCyclesInto does, so for a NormSource that replicates the
// trace's rand stream (engine's SplitMix64 sources do, pinned draw for
// draw) the fused expansion is bit-identical to the scalar path. The
// portable kernels are the reference; the AVX-512 kernels are pinned to
// them by TestExpandKernelsPinned, and REPRO_FORCE_PORTABLE=1 forces the
// portable path process-wide.

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

	// All avg repetitions' noise comes from one fill: repetition rep
	// draws z[rep·need:(rep+1)·need], the same stream order as avg
	// separate fills.
	noise := ns != nil && m.NoiseSigma > 0
	if noise {
		if cap(z) < avg*need {
			z = make([]float64, avg*need)
		} else {
			z = z[:avg*need]
		}
		ns.FillNorm(z)
	}
	for rep := 0; rep < avg; rep++ {
		if noise {
			expandNorm(dst, cycles, shape, m.Baseline, m.NoiseSigma, z[rep*need:(rep+1)*need], rep > 0)
		} else {
			expandNormGeneric(dst, cycles, shape, m.Baseline, 0, nil, rep > 0)
		}
	}
	return dst.Scale(1 / float64(avg)), z
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
// reference the vector kernels are pinned to. Per sample it performs
// emitCycle's exact rounded sequence: v := baseline + (p-baseline)*sh,
// then v += z*sigma when a noise buffer is present; with add set the
// result accumulates into dst (the AddInPlace of the averaging loop),
// otherwise it overwrites.
func expandNormGeneric(dst, cycles, shape []float64, baseline, sigma float64, z []float64, add bool) {
	spc := len(shape)
	for c, p := range cycles {
		row := dst[c*spc : c*spc+spc]
		for k, sh := range shape {
			v := baseline + (p-baseline)*sh
			if z != nil {
				v += z[c*spc+k] * sigma
			}
			if add {
				row[k] += v
			} else {
				row[k] = v
			}
		}
	}
}
