// Package cliutil deduplicates the engine-tuning command-line plumbing
// shared by the tools: every binary that drives the synthesis engine
// spells -workers, -lanes, -seed and -replay the same way, validates
// them the same way, and documents the same determinism contract
// (results are bit-identical for any -workers/-lanes value).
package cliutil

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/replay"
	"repro/internal/target"
)

// EngineFlags bundles the shared engine flags. Register the subsets a
// tool needs, call Finish after flag.Parse, then read the fields.
type EngineFlags struct {
	// Config holds the -workers value (0: one per core) and the -lanes
	// value (0: default width), ready to hand to the engine.
	engine.Config
	// Seed is the -seed value (only meaningful after RegisterSeed).
	Seed int64
	// Mode is the parsed -replay value (engine.ModeAuto unless
	// RegisterReplay was used and the flag was set otherwise).
	Mode engine.Mode

	replay string
}

// Register adds the flags every engine-driving tool shares: -workers
// and -lanes.
func (f *EngineFlags) Register(fs *flag.FlagSet) {
	f.RegisterWorkersUsage(fs, "trace-synthesis workers (0: one per core)")
}

// RegisterWorkersUsage is Register with tool-specific -workers help
// text, for tools whose zero value resolves differently (cmd/campaign's
// 0 defers to the spec).
func (f *EngineFlags) RegisterWorkersUsage(fs *flag.FlagSet, workersUsage string) {
	fs.IntVar(&f.Workers, "workers", 0, workersUsage)
	fs.IntVar(&f.Lanes, "lanes", 0, fmt.Sprintf(
		"lane-parallel replay batch width, 1..%d (0: default)", replay.MaxLanes))
}

// RegisterSeed adds -seed with the given default.
func (f *EngineFlags) RegisterSeed(fs *flag.FlagSet, def int64) {
	fs.Int64Var(&f.Seed, "seed", def, "random seed")
}

// RegisterReplay adds -replay.
func (f *EngineFlags) RegisterReplay(fs *flag.FlagSet) {
	fs.StringVar(&f.replay, "replay", "auto",
		"trace synthesis: auto (compiled replay with verification) or simulate (full simulation)")
}

// TargetFlags bundles the shared workload-selection flags: -target
// names the attacked cipher from the registry (the tools that sweep or
// synthesize cipher workloads), -figure the reproduced workload (each
// tool documents its own value set). Tools register the subset that
// applies.
type TargetFlags struct {
	// Target is the -target value; "" selects the AES default.
	Target string
	// Figure is the -figure value; "" selects the tool's default.
	Figure string
}

// RegisterTarget adds -target, listing the registered cipher names.
func (f *TargetFlags) RegisterTarget(fs *flag.FlagSet) {
	f.RegisterTargetUsage(fs,
		"attacked cipher target: "+strings.Join(target.Names(), ", ")+` ("": aes)`)
}

// RegisterTargetUsage is RegisterTarget with tool-specific help text,
// for tools where -target filters rather than selects (cmd/campaign).
func (f *TargetFlags) RegisterTargetUsage(fs *flag.FlagSet, usage string) {
	fs.StringVar(&f.Target, "target", "", usage)
}

// RegisterFigure adds -figure with tool-specific help text.
func (f *TargetFlags) RegisterFigure(fs *flag.FlagSet, usage string) {
	fs.StringVar(&f.Figure, "figure", "", usage)
}

// FinishTarget validates -target against the registry and returns the
// resolved target's metadata. Call it once flag parsing has run.
func (f *TargetFlags) FinishTarget() (target.Info, error) {
	tgt, err := target.Get(f.Target)
	if err != nil {
		return target.Info{}, err
	}
	return tgt.Info(), nil
}

// Finish validates the registered flags after parsing and resolves
// Mode. Call it once flag.Parse has run.
func (f *EngineFlags) Finish() error {
	if f.Workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", f.Workers)
	}
	if err := engine.CheckLanes(f.Lanes); err != nil {
		return fmt.Errorf("-lanes: %w", err)
	}
	if f.replay != "" {
		mode, err := engine.ParseMode(f.replay)
		if err != nil {
			return err
		}
		f.Mode = mode
	}
	return nil
}
