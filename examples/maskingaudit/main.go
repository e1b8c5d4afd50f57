// Maskingaudit audits three scheduling variants of the same first-order
// masked computation, both statically (the paper's leakage model plus
// taint tracking) and dynamically (first-order CPA on simulated traces),
// and shows the §4.2 punchline: a gadget protected by dual-issue on the
// Cortex-A7-class core breaks when the identical binary runs on a
// scalar, ISA-compatible core.
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"repro/internal/masking"
	"repro/internal/pipeline"
)

func audit(w io.Writer, name, schedule string, cfg pipeline.Config) error {
	viol, err := masking.CheckStatic(schedule, cfg)
	if err != nil {
		return err
	}
	opt := masking.DefaultKeyedOptions()
	opt.Schedule, opt.Core = schedule, cfg
	dyn, err := masking.EvaluateKeyedCPA(opt)
	if err != nil {
		return err
	}
	verdict := "SECURE"
	if len(viol) > 0 || dyn.Success {
		verdict = "LEAKS"
	}
	fmt.Fprintf(w, "%-34s %-7s static violations: %d, key rank %3d, true-key |r|=%.3f\n",
		name, verdict, len(viol), dyn.Rank, math.Abs(dyn.TrueCorr))
	for _, v := range viol {
		fmt.Fprintln(w, "      ", v)
	}
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the audit of every schedule on both cores to w.
func run(w io.Writer) error {
	fmt.Fprintln(w, "First-order Boolean masking: v = share0 ^ share1 with v = S[pt ^ key];")
	fmt.Fprintln(w, "a first-order CPA over the power trace tries to recover the key byte.")
	for _, core := range []struct {
		title string
		cfg   pipeline.Config
	}{
		{"on the Cortex-A7-class dual-issue core", pipeline.DefaultConfig()},
		{"the same binaries ported to a scalar ISA-compatible core", pipeline.ScalarConfig()},
	} {
		fmt.Fprintf(w, "\n--- %s ---\n", core.title)
		for _, g := range []struct{ name, schedule string }{
			{"naive back-to-back shares", masking.ScheduleNaive},
			{"schedule-separated shares", masking.ScheduleSeparated},
			{"dual-issued share pair", masking.ScheduleDualIssue},
		} {
			if err := audit(w, g.name, g.schedule, core.cfg); err != nil {
				return err
			}
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "The dual-issue-protected gadget is secure on the superscalar core and")
	fmt.Fprintln(w, "broken on the scalar one: side-channel security does not port across")
	fmt.Fprintln(w, "ISA-compatible micro-architectures (the paper's central claim).")
	return nil
}
