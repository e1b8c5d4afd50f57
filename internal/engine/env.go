package engine

import (
	"context"

	"repro/internal/pipeline"
	"repro/internal/power"
)

// RunEnv bundles the execution environment the request-shaped entry
// points (attack.Request, leakscan.Request) run under: the
// micro-architecture and power model the experiment targets, plus the
// scheduling knobs of the synthesis pool. The environment carries
// everything that is NOT part of a request's result-affecting identity
// — Workers, Lanes, Gate and Ctx never change a result's bits, and
// Core/Model are selected by the caller (e.g. from a named ablation),
// so a long-lived service can fingerprint requests alone and share one
// environment across all of them.
type RunEnv struct {
	// Core is the pipeline configuration under test.
	Core pipeline.Config
	// Model is the power model (a request's noise_sigma override is
	// applied on a copy).
	Model power.Model
	// Workers sizes the synthesis pool (0: one per core).
	Workers int
	// Lanes is the lane-group width (0: default; see CheckLanes).
	Lanes int
	// Ctx, when non-nil, cancels the run between chunks.
	Ctx context.Context
	// Gate, when non-nil, bounds synthesis concurrency across every run
	// sharing it.
	Gate *Gate
}

// DefaultRunEnv is the paper's deduced configuration with an unshared,
// ungated pool — the environment the command-line tools run under.
func DefaultRunEnv() RunEnv {
	return RunEnv{Core: pipeline.DefaultConfig(), Model: power.DefaultModel()}
}
