package cliutil

import (
	"flag"
	"testing"

	"repro/internal/engine"

	// Register the cipher targets FinishTarget resolves against.
	_ "repro/internal/aes"
	_ "repro/internal/speck"
)

func parseWith(t *testing.T, args []string, register func(*EngineFlags, *flag.FlagSet)) (*EngineFlags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var f EngineFlags
	register(&f, fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &f, f.Finish()
}

func TestEngineFlagsDefaults(t *testing.T) {
	f, err := parseWith(t, nil, func(f *EngineFlags, fs *flag.FlagSet) {
		f.Register(fs)
		f.RegisterSeed(fs, 7)
		f.RegisterReplay(fs)
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Workers != 0 || f.Lanes != 0 || f.Seed != 7 || f.Mode != engine.ModeAuto {
		t.Fatalf("defaults wrong: %+v", f)
	}
}

func TestEngineFlagsParse(t *testing.T) {
	f, err := parseWith(t, []string{"-workers", "3", "-lanes", "8", "-replay", "simulate", "-seed", "9"},
		func(f *EngineFlags, fs *flag.FlagSet) {
			f.Register(fs)
			f.RegisterSeed(fs, 1)
			f.RegisterReplay(fs)
		})
	if err != nil {
		t.Fatal(err)
	}
	if f.Workers != 3 || f.Lanes != 8 || f.Seed != 9 || f.Mode != engine.ModeSimulate {
		t.Fatalf("parsed wrong: %+v", f)
	}
}

func TestEngineFlagsValidation(t *testing.T) {
	if _, err := parseWith(t, []string{"-workers", "-2"}, func(f *EngineFlags, fs *flag.FlagSet) {
		f.Register(fs)
	}); err == nil {
		t.Fatal("negative workers must be rejected")
	}
	for _, lanes := range []string{"-1", "65"} {
		if _, err := parseWith(t, []string{"-lanes", lanes}, func(f *EngineFlags, fs *flag.FlagSet) {
			f.Register(fs)
		}); err == nil {
			t.Fatalf("-lanes %s must be rejected", lanes)
		}
	}
	for _, mode := range []string{"warp", "replay"} {
		if _, err := parseWith(t, []string{"-replay", mode}, func(f *EngineFlags, fs *flag.FlagSet) {
			f.Register(fs)
			f.RegisterReplay(fs)
		}); err == nil {
			t.Fatalf("-replay %s must be rejected", mode)
		}
	}
}

func TestFinishWithoutReplayKeepsAuto(t *testing.T) {
	f, err := parseWith(t, []string{"-workers", "2"}, func(f *EngineFlags, fs *flag.FlagSet) {
		f.Register(fs)
	})
	if err != nil || f.Mode != engine.ModeAuto {
		t.Fatalf("mode %v err %v", f.Mode, err)
	}
}

func TestTargetFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var tf TargetFlags
	tf.RegisterTarget(fs)
	tf.RegisterFigure(fs, "workload")
	if err := fs.Parse([]string{"-target", "speck64", "-figure", "fullkey"}); err != nil {
		t.Fatal(err)
	}
	if tf.Target != "speck64" || tf.Figure != "fullkey" {
		t.Fatalf("parsed wrong: %+v", tf)
	}
	info, err := tf.FinishTarget()
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "speck64" {
		t.Fatalf("resolved %q, want speck64", info.Name)
	}
}

func TestTargetFlagsDefaultIsAES(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var tf TargetFlags
	tf.RegisterTarget(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	info, err := tf.FinishTarget()
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "aes" {
		t.Fatalf("empty -target resolved %q, want aes", info.Name)
	}
}

func TestTargetFlagsUnknownTarget(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var tf TargetFlags
	tf.RegisterTarget(fs)
	if err := fs.Parse([]string{"-target", "des"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tf.FinishTarget(); err == nil {
		t.Fatal("unknown target must be rejected")
	}
}
