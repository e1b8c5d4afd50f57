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
//	leakscan [-figure table2|tvla] [-traces N] [-row K] [-order 1|2] [-workers W] [-replay auto|replay|simulate] [-noalign] [-nonopreset] [-scalar]
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
	"os"

	"repro/internal/cliutil"
	"repro/internal/leakscan"
)

func main() {
	opt := leakscan.DefaultOptions()
	var ef cliutil.EngineFlags
	ef.Register(flag.CommandLine)
	ef.RegisterReplay(flag.CommandLine)
	var tf cliutil.TargetFlags
	tf.RegisterFigure(flag.CommandLine,
		`workload: table2 (model-based CPA scan) or tvla (fixed-vs-random Welch t-test) ("": table2)`)
	traces := flag.Int("traces", opt.Traces, "acquisitions per benchmark (paper: 100k on hardware)")
	row := flag.Int("row", 0, "run a single Table 2 row (1..7); 0 runs all")
	order := flag.Int("order", 1, "CPA combining order: 1 or 2 (centered products)")
	noAlign := flag.Bool("noalign", false, "ablation: remove the LSU align buffer")
	noNop := flag.Bool("nonopreset", false, "ablation: nops do not reset the WB bus")
	scalar := flag.Bool("scalar", false, "ablation: single-issue core")
	flag.Parse()

	if err := ef.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "leakscan:", err)
		os.Exit(1)
	}
	tvla := tf.Figure == "tvla"
	switch tf.Figure {
	case "", "table2", "tvla":
	default:
		fmt.Fprintf(os.Stderr, "leakscan: -figure must be table2 or tvla, got %q\n", tf.Figure)
		os.Exit(1)
	}
	if *traces < 8 {
		fmt.Fprintf(os.Stderr, "leakscan: -traces must be >= 8, got %d\n", *traces)
		os.Exit(1)
	}
	if *order != 1 && *order != 2 {
		fmt.Fprintf(os.Stderr, "leakscan: -order must be 1 or 2, got %d\n", *order)
		os.Exit(1)
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
		fmt.Fprintf(os.Stderr, "leakscan: -row must be in 1..%d, got %d\n", len(leakscan.Benchmarks()), *row)
		os.Exit(1)
	}

	if tvla {
		for k, b := range bs {
			r, err := leakscan.RunTVLA(&b, opt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "leakscan:", err)
				os.Exit(1)
			}
			if k == 0 {
				fmt.Println("Fixed-vs-random Welch t-test over the Table 2 benchmarks")
				fmt.Printf("criterion: |t| > %g at any sample, %d traces per group\n\n", leakscan.TVLAThreshold, r.TracesPerGroup)
			}
			verdict := "no leak"
			if r.Detected {
				verdict = "LEAK"
			}
			fmt.Printf("Row %d: %-10s max |t| = %8.2f at sample %-5d %s\n", b.Row, b.Name, r.MaxT, r.Sample, verdict)
		}
		return
	}

	var results []*leakscan.BenchResult
	for _, b := range bs {
		r, err := leakscan.RunBenchmark(&b, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "leakscan:", err)
			os.Exit(1)
		}
		results = append(results, r)
	}
	fmt.Println("Leakage characterization of the modelled Cortex-A7 (paper Table 2)")
	fmt.Printf("criterion: correlation in the correct clock cycle, confidence > %.1f%% (Bonferroni-corrected)\n\n",
		100*opt.Confidence)
	fmt.Print(leakscan.Report(results))
}
