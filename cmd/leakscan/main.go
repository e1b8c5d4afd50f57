// Command leakscan reproduces §4 of the paper: the seven Table 2
// micro-benchmarks are run with random operands through the simulated
// measurement chain, and every per-component power-model expression is
// tested for a statistically sound correlation in its clock-cycle window.
//
// Acquisitions stream across all cores by default (-workers); verdicts
// are identical for any worker count.
//
// Usage:
//
//	leakscan [-figure table2|tvla] [-traces N] [-row K] [-order 1|2] [-workers W] [-replay auto|simulate] [-noalign] [-nonopreset] [-scalar]
//
// -order 2 scans centered products of sample pairs inside each
// expression window (second-order CPA; cells are unscored since Table 2
// is first-order ground truth). -figure tvla runs the non-specific
// fixed-vs-random Welch t-test instead of the model-based scan (-traces
// must then be even: trace i joins group i&1).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cliutil"
	"repro/internal/leakscan"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses argv, runs the scan and prints its report. It returns the
// process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	const tool = "leakscan"
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)

	opt := leakscan.DefaultOptions()
	var ef cliutil.EngineFlags
	ef.Register(fs)
	ef.RegisterReplay(fs)
	var tf cliutil.TargetFlags
	tf.RegisterFigure(fs,
		`workload: table2 (model-based CPA scan) or tvla (fixed-vs-random Welch t-test) ("": table2)`)
	traces := fs.Int("traces", opt.Traces, "acquisitions per benchmark (paper: 100k on hardware)")
	row := fs.Int("row", 0, "run a single Table 2 row (1..7); 0 runs all")
	order := fs.Int("order", 1, "CPA combining order: 1 or 2 (centered products)")
	noAlign := fs.Bool("noalign", false, "ablation: remove the LSU align buffer")
	noNop := fs.Bool("nonopreset", false, "ablation: nops do not reset the WB bus")
	scalar := fs.Bool("scalar", false, "ablation: single-issue core")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	fail := func(msg string) int {
		fmt.Fprintf(stderr, "%s: %s\n", tool, msg)
		return 1
	}
	if err := ef.Finish(); err != nil {
		return fail(err.Error())
	}
	tvla := tf.Figure == "tvla"
	switch tf.Figure {
	case "", "table2", "tvla":
	default:
		return fail(fmt.Sprintf("-figure must be table2 or tvla, got %q", tf.Figure))
	}
	if *traces < 8 {
		return fail(fmt.Sprintf("-traces must be >= 8, got %d", *traces))
	}
	if *order != 1 && *order != 2 {
		return fail(fmt.Sprintf("-order must be 1 or 2, got %d", *order))
	}
	opt.Traces = *traces
	opt.Order = *order
	opt.Config = ef.Config
	opt.Synth = ef.Mode
	if *noAlign {
		opt.Core.AlignBuffer = false
	}
	if *noNop {
		opt.Core.NopZeroesWB = false
	}
	if *scalar {
		opt.Core.DualIssue = false
	}

	var rows []int // none: all seven
	if *row != 0 {
		rows = []int{*row}
	}
	bs, err := leakscan.BenchmarksByRow(rows)
	if err != nil {
		return fail(fmt.Sprintf("-row must be in 1..%d, got %d", len(leakscan.Benchmarks()), *row))
	}

	if tvla {
		for k, b := range bs {
			r, err := leakscan.RunTVLA(&b, opt)
			if err != nil {
				return fail(err.Error())
			}
			if k == 0 {
				fmt.Fprintln(stdout, "Fixed-vs-random Welch t-test over the Table 2 benchmarks")
				fmt.Fprintf(stdout, "criterion: |t| > %g at any sample, %d traces per group\n\n", leakscan.TVLAThreshold, r.TracesPerGroup)
			}
			verdict := "no leak"
			if r.Detected {
				verdict = "LEAK"
			}
			fmt.Fprintf(stdout, "Row %d: %-10s max |t| = %8.2f at sample %-5d %s\n", b.Row, b.Name, r.MaxT, r.Sample, verdict)
		}
		return 0
	}

	var results []*leakscan.BenchResult
	for _, b := range bs {
		r, err := leakscan.RunBenchmark(&b, opt)
		if err != nil {
			return fail(err.Error())
		}
		results = append(results, r)
	}
	fmt.Fprintln(stdout, "Leakage characterization of the modelled Cortex-A7 (paper Table 2)")
	fmt.Fprintf(stdout, "criterion: correlation in the correct clock cycle, confidence > %.1f%% (Bonferroni-corrected)\n\n",
		100*opt.Confidence)
	fmt.Fprint(stdout, leakscan.Report(results))
	return 0
}
