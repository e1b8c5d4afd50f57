package masking

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pipeline"
)

func TestSplitCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(v uint32) bool {
		s0, s1 := Split(rng, v)
		return Combine(s0, s1) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Shares must be individually uniform: each share alone says nothing.
func TestShareUniformity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 20000
	ones := 0
	for i := 0; i < n; i++ {
		s0, _ := Split(rng, 0xFFFFFFFF) // extreme secret
		ones += int(s0 & 1)
	}
	frac := float64(ones) / n
	if frac < 0.47 || frac > 0.53 {
		t.Errorf("share bit bias %v, want about 0.5", frac)
	}
}

// The static checker's verdict per schedule and core: back-to-back
// shares recombine everywhere, separated shares nowhere, and the
// dual-issued pair only once the binary runs on a scalar core.
func TestStaticCheckerVerdicts(t *testing.T) {
	dual, scalar := pipeline.DefaultConfig(), pipeline.ScalarConfig()
	cases := []struct {
		sched    string
		core     string
		cfg      pipeline.Config
		violates bool
	}{
		{ScheduleNaive, "dual", dual, true},
		{ScheduleSeparated, "dual", dual, false},
		{ScheduleDualIssue, "dual", dual, false},
		{ScheduleNaive, "scalar", scalar, true},
		{ScheduleSeparated, "scalar", scalar, false},
		{ScheduleDualIssue, "scalar", scalar, true},
	}
	for _, c := range cases {
		v, err := CheckStatic(c.sched, c.cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.sched, c.core, err)
		}
		if (len(v) > 0) != c.violates {
			for _, x := range v {
				t.Logf("  %s", x)
			}
			t.Errorf("%s/%s: violations=%d, want violating=%v", c.sched, c.core, len(v), c.violates)
		}
	}
	for _, sched := range []string{ScheduleSbox, "rot13"} {
		if _, err := CheckStatic(sched, dual); err == nil {
			t.Errorf("%s: static check must be rejected", sched)
		}
	}
}

func TestDynamicLeakageMatchesStatic(t *testing.T) {
	naive, err := EvaluateKeyedCPA(keyedOpt(ScheduleNaive, "mask", 1, 1200))
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Success {
		t.Errorf("naive gadget must leak the key: rank %d, r=%v", naive.Rank, naive.TrueCorr)
	}
	dual, err := EvaluateKeyedCPA(keyedOpt(ScheduleDualIssue, "mask", 1, 1200))
	if err != nil {
		t.Fatal(err)
	}
	if dual.Success {
		t.Errorf("dual-issued gadget must not leak: r=%v conf=%v", dual.BestCorr, dual.Confidence)
	}
	sep, err := EvaluateKeyedCPA(keyedOpt(ScheduleSeparated, "mask", 1, 1200))
	if err != nil {
		t.Fatal(err)
	}
	if sep.Success {
		t.Errorf("separated gadget must not leak: r=%v conf=%v", sep.BestCorr, sep.Confidence)
	}
}

// Porting hazard: the dual-issue-protected gadget recombines when the
// same binary runs on a scalar, ISA-compatible core (§1's portable
// side-channel security problem).
func TestDualIssueGadgetBreaksOnScalarCore(t *testing.T) {
	v, err := CheckStatic(ScheduleDualIssue, pipeline.ScalarConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(v) == 0 {
		t.Fatal("scalar core must recombine the dual-issue-protected shares")
	}
	opt := keyedOpt(ScheduleDualIssue, "mask", 1, 1200)
	opt.Core = pipeline.ScalarConfig()
	dyn, err := EvaluateKeyedCPA(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !dyn.Success {
		t.Errorf("scalar core leak not measured: rank %d, r=%v", dyn.Rank, dyn.TrueCorr)
	}
}

func TestEvaluateLeakageValidation(t *testing.T) {
	if _, err := EvaluateKeyedCPA(keyedOpt(ScheduleNaive, "mask", 1, 2)); err == nil {
		t.Error("too few traces must be rejected")
	}
}
