package engine

import (
	"repro/internal/pipeline"
	"repro/internal/power"
)

// RunEnv bundles the execution environment the request-shaped entry
// points (attack.Request, leakscan.Request) run under: the
// micro-architecture and power model the experiment targets, plus the
// run's scheduling. The environment carries everything that is NOT part
// of a request's result-affecting identity — the Config knobs never
// change a result's bits, and Core/Model are selected by the caller
// (e.g. from a named ablation), so a long-lived service can fingerprint
// requests alone and share one environment across all of them.
type RunEnv struct {
	// Core is the pipeline configuration under test.
	Core pipeline.Config
	// Model is the power model (a request's noise_sigma override is
	// applied on a copy).
	Model power.Model
	Config
}

// DefaultRunEnv is the paper's deduced configuration with an unshared,
// ungated pool — the environment the command-line tools run under.
func DefaultRunEnv() RunEnv {
	return RunEnv{Core: pipeline.DefaultConfig(), Model: power.DefaultModel()}
}
