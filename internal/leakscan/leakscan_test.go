package leakscan

import (
	"strings"
	"testing"

	"repro/internal/pipeline"
)

func fastOptions() Options {
	o := DefaultOptions()
	o.Traces = 600
	return o
}

func TestBenchmarksWellFormed(t *testing.T) {
	for _, b := range Benchmarks() {
		b := b
		prog, start, err := b.program()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if start != padNops {
			t.Errorf("%s: sequence starts at %d", b.Name, start)
		}
		if prog.Len() != b.SeqLen+2*padNops {
			t.Errorf("%s: program length %d", b.Name, prog.Len())
		}
		for _, e := range b.Exprs {
			if e.Anchor < 0 || e.Anchor > b.SeqLen {
				t.Errorf("%s: expr %q anchors at %d", b.Name, e.Name, e.Anchor)
			}
			if e.Eval == nil {
				t.Errorf("%s: expr %q has no evaluator", b.Name, e.Name)
			}
		}
	}
}

func TestTableRowNumbers(t *testing.T) {
	rows := Benchmarks()
	if len(rows) != 7 {
		t.Fatalf("Table 2 has 7 rows, got %d", len(rows))
	}
	for i, b := range rows {
		if b.Row != i+1 {
			t.Errorf("row %d labelled %d", i+1, b.Row)
		}
	}
}

// The headline reproduction: every scored Table 2 verdict matches.
func TestTable2FullAgreement(t *testing.T) {
	var results []*BenchResult
	for _, b := range Benchmarks() {
		r, err := RunBenchmark(&b, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		results = append(results, r)
	}
	for _, r := range results {
		if r.Dual != r.DualExpected {
			t.Errorf("row %d (%s): dual=%v, expected %v", r.Row, r.Name, r.Dual, r.DualExpected)
		}
		for _, e := range r.Exprs {
			if e.Scored && !e.Match {
				t.Errorf("row %d (%s) %s %q: detected=%v (r=%+.3f conf=%.5f), expected %v",
					r.Row, r.Name, e.Column, e.Name, e.Detected, e.Peak, e.Confidence, e.Expected)
			}
		}
	}
	match, total := Agreement(results)
	if match != total {
		t.Fatalf("Table 2 agreement %d/%d", match, total)
	}
}

func TestVerdictStrings(t *testing.T) {
	if None.Leaks() || !Leak.Leaks() || !Border.Leaks() {
		t.Error("Leaks() broken")
	}
	if !strings.Contains(Border.String(), "†") {
		t.Error("border verdict must carry the dagger")
	}
}

func TestRunBenchmarkValidation(t *testing.T) {
	b := Benchmarks()[0]
	opt := DefaultOptions()
	opt.Traces = 2
	if _, err := RunBenchmark(&b, opt); err == nil {
		t.Error("too few traces must be rejected")
	}
	opt = DefaultOptions()
	opt.Model.SamplesPerCycle = 0
	if _, err := RunBenchmark(&b, opt); err == nil {
		t.Error("invalid model must be rejected")
	}
	for _, avg := range []int{0, -3} {
		opt = DefaultOptions()
		opt.Traces, opt.Averages = 100, avg
		if _, err := RunBenchmark(&b, opt); err == nil {
			t.Errorf("averages %d must be rejected, not defaulted", avg)
		}
	}
}

// Ablation: disabling the align buffer removes exactly the rC^rG leak of
// row 7 (DESIGN.md ablation 3).
func TestAlignBufferAblation(t *testing.T) {
	opt := fastOptions()
	opt.Core.AlignBuffer = false
	b := Benchmarks()[6]
	res, err := RunBenchmark(&b, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Exprs {
		if e.Column == ColAlign && e.Detected {
			t.Errorf("align expression %q still detected with the buffer disabled (r=%+.3f)", e.Name, e.Peak)
		}
		if e.Column == ColMDR && !e.Detected {
			t.Errorf("MDR expression %q lost without the align buffer (r=%+.3f)", e.Name, e.Peak)
		}
	}
}

// Ablation: without the nop WB-reset, the † border leakages vanish while
// the true transition leakages stay (DESIGN.md ablation 2).
func TestNopResetAblation(t *testing.T) {
	opt := fastOptions()
	opt.Core.NopZeroesWB = false
	b := Benchmarks()[1] // add;add single-issued
	res, err := RunBenchmark(&b, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Exprs {
		if e.Column != ColEXWB {
			continue
		}
		switch e.Name {
		case "rA^rD":
			if !e.Detected {
				t.Errorf("true EX/WB transition lost without nop reset (r=%+.3f)", e.Peak)
			}
		case "rD†":
			if e.Detected {
				t.Errorf("border leak %q persists without nop reset (r=%+.3f)", e.Name, e.Peak)
			}
		}
	}
}

// On a scalar core the dual-issue row degrades to single issue and its
// operand/result combinations appear (the leakage the Cortex-A7's dual
// issue was hiding).
func TestScalarCoreChangesRow3(t *testing.T) {
	opt := fastOptions()
	opt.Core = pipeline.ScalarConfig()
	b := Benchmarks()[2]
	res, err := RunBenchmark(&b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dual {
		t.Fatal("scalar core cannot dual-issue")
	}
	for _, e := range res.Exprs {
		if e.Column == ColEXWB && e.Name == "rA^rD" && !e.Detected {
			t.Errorf("single-issued results must combine on the WB bus (r=%+.3f)", e.Peak)
		}
	}
}

func TestReportRendering(t *testing.T) {
	opt := fastOptions()
	opt.Traces = 300
	b := Benchmarks()[0]
	res, err := RunBenchmark(&b, opt)
	if err != nil {
		t.Fatal(err)
	}
	rep := Report([]*BenchResult{res})
	for _, want := range []string{"Row 1", "Is/Ex Buffer", "agreement"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TVLA extension: the fixed-vs-random t-test flags data-dependent
// consumption in every Table 2 benchmark without a power model, and is
// silent on a constant-data control.
func TestTVLADetectsDataDependence(t *testing.T) {
	opt := fastOptions()
	for _, idx := range []int{1, 5} { // adds and stores
		b := Benchmarks()[idx]
		res, err := RunTVLA(&b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Detected {
			t.Errorf("%s: max |t| = %.2f, want > %.1f", b.Name, res.MaxT, TVLAThreshold)
		}
	}
}

func TestTVLAValidation(t *testing.T) {
	b := Benchmarks()[0]
	opt := DefaultOptions()
	opt.Traces = 2
	if _, err := RunTVLA(&b, opt); err == nil {
		t.Error("too few traces must be rejected")
	}
	for _, avg := range []int{0, -3} {
		opt = DefaultOptions()
		opt.Traces, opt.Averages = 100, avg
		if _, err := RunTVLA(&b, opt); err == nil {
			t.Errorf("averages %d must be rejected, not defaulted", avg)
		}
	}
}
