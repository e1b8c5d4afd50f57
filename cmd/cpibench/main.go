// Command cpibench reproduces §3.2 of the paper: it measures the CPI of
// repeated instruction pairs on the simulated Cortex-A7-class core,
// recovers the dual-issue matrix (Table 1) and infers the pipeline
// structure (Figure 2).
//
// Usage:
//
//	cpibench [-reps N] [-scalar] [-structural] [-infer]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cpi"
	"repro/internal/pipeline"
)

func main() {
	reps := flag.Int("reps", cpi.DefaultReps, "repetitions of each instruction pair")
	scalar := flag.Bool("scalar", false, "degrade the core to single issue (control)")
	structural := flag.Bool("structural", false, "replace the Table 1 policy with structural checks only")
	infer := flag.Bool("infer", true, "run the Figure 2 micro-architecture inference")
	flag.Parse()

	cfg := pipeline.DefaultConfig()
	if *scalar {
		cfg = pipeline.ScalarConfig()
	}
	cfg.StructuralPolicyOnly = *structural

	m, err := cpi.MeasureMatrix(cfg, *reps, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpibench:", err)
		os.Exit(1)
	}
	fmt.Println("Dual-issue matrix recovered from CPI measurements (paper Table 1):")
	fmt.Println("rows: older instruction class, columns: younger; YES = dual-issued (CPI 0.5)")
	fmt.Println()
	fmt.Print(m.Table())
	match, total := m.Agreement()
	fmt.Printf("\nagreement with the published Table 1: %d/%d cells\n", match, total)

	if *infer {
		p, err := cpi.MeasureProbes(cfg, *reps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpibench:", err)
			os.Exit(1)
		}
		fmt.Printf("\ntargeted probes: mov-pair CPI %.2f, ld %.2f, st %.2f, mul %.2f, nop %.2f, ldr+ALUimm %.2f\n",
			p.MovPairCPI, p.LoadSeqCPI, p.StoreSeqCPI, p.MulSeqCPI, p.NopSeqCPI, p.LoadWithALUImmCPI)
		inf := cpi.Infer(m, p)
		fmt.Println()
		fmt.Print(inf)
		if ok, why := inf.MatchesPaper(); ok {
			fmt.Println("inference matches every Figure 2 deduction of the paper")
		} else {
			fmt.Println("inference deviates from the paper:", why)
		}
	}
}
