package leakscan

import (
	"math"
	"testing"

	"repro/internal/engine"
)

// tvlaSerialReference recomputes the t statistics on one worker with
// every trace simulated — the reference semantics RunTVLA's batched
// path must reproduce bit for bit.
func tvlaSerialReference(t *testing.T, b *Benchmark, opt Options) *TVLAResult {
	t.Helper()
	ref := opt
	ref.Workers = 1
	ref.Lanes = 0
	ref.Synth = engine.ModeSimulate
	res, err := RunTVLA(b, ref)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Golden values: the t statistic of a fixed seed must stay put. A small
// tolerance (not bit equality) absorbs cross-platform FMA fusion in the
// Welford update; bitwise identity across configurations of the same
// binary is asserted separately below.
func TestTVLAGoldenValues(t *testing.T) {
	opt := DefaultOptions()
	opt.Traces = 600
	b := Benchmarks()[1] // adds: data-dependent
	res, err := RunTVLA(&b, opt)
	if err != nil {
		t.Fatal(err)
	}
	const wantMaxT = 23.06494148016871
	const wantSample = 64
	if math.Abs(res.MaxT-wantMaxT) > 1e-9 {
		t.Errorf("max |t| = %.14f, want %.14f", res.MaxT, wantMaxT)
	}
	if res.Sample != wantSample {
		t.Errorf("peak sample = %d, want %d", res.Sample, wantSample)
	}
	if !res.Detected {
		t.Error("adds benchmark must be detected")
	}
	if res.TracesPerGroup != 300 {
		t.Errorf("traces per group = %d, want 300", res.TracesPerGroup)
	}
}

// The determinism contract: RunTVLA is bit-identical for any worker
// count, lane width and synthesis mode, and equals the serial scalar
// reference.
func TestTVLAInvariance(t *testing.T) {
	opt := DefaultOptions()
	opt.Traces = 400
	b := Benchmarks()[1]
	want := tvlaSerialReference(t, &b, opt)
	cases := []struct {
		name    string
		workers int
		lanes   int
		synth   engine.Mode
	}{
		{"defaults", 0, 0, engine.ModeAuto},
		{"one worker", 1, 0, engine.ModeAuto},
		{"many workers", 7, 0, engine.ModeAuto},
		{"narrow lanes", 3, 2, engine.ModeAuto},
		{"wide lanes", 2, 16, engine.ModeAuto},
		{"simulate", 4, 0, engine.ModeSimulate},
		{"replay", 4, 8, engine.ModeReplay},
	}
	for _, c := range cases {
		o := opt
		o.Workers, o.Lanes, o.Synth = c.workers, c.lanes, c.synth
		got, err := RunTVLA(&b, o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Float64bits(got.MaxT) != math.Float64bits(want.MaxT) ||
			got.Sample != want.Sample || got.Detected != want.Detected {
			t.Errorf("%s: MaxT=%v sample=%d, want MaxT=%v sample=%d",
				c.name, got.MaxT, got.Sample, want.MaxT, want.Sample)
		}
	}
}

// Different seeds must draw different operands and noise — the t peak
// moves in value while the detection verdict stays.
func TestTVLASeedSensitivity(t *testing.T) {
	opt := DefaultOptions()
	opt.Traces = 400
	b := Benchmarks()[1]
	a, err := RunTVLA(&b, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Seed = 99
	c, err := RunTVLA(&b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.MaxT) == math.Float64bits(c.MaxT) {
		t.Error("different seeds produced bit-identical t statistics")
	}
	if !a.Detected || !c.Detected {
		t.Error("detection verdict must hold for both seeds")
	}
}
