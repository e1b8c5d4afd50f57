// Command scacpa runs correlation power analysis against any cipher
// target in the registry (aes, chacha20, present, speck64): the §5
// bare-metal attack with the target's table-driven class model (fig3
// workload), the AES-specific loaded-Linux attack (fig4), and the
// full-key and rank-evolution workloads built on the fig3 model.
//
// Trace synthesis and CPA accumulation stream across all cores by
// default (-workers); results are identical for any worker count.
//
// Usage:
//
//	scacpa [-target T] [-figure fig3,fullkey] [-traces N] [-keybyte B] [-rounds R]
//	       [-seed S] [-workers W] [-lanes L] [-replay auto|simulate]
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/attack"
	"repro/internal/cliutil"
	"repro/internal/engine"
	"repro/internal/target"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses argv and runs the selected workloads. It returns the
// process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	const tool = "scacpa"
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)

	var ef cliutil.EngineFlags
	ef.Register(fs)
	ef.RegisterSeed(fs, 1)
	ef.RegisterReplay(fs)
	var tf cliutil.TargetFlags
	tf.RegisterTarget(fs)
	tf.RegisterFigure(fs, `workloads, comma-separated: fig3, fig4 (aes only), fullkey, rankevo ("": fig3,fig4 for aes, fig3 otherwise)`)
	traces := fs.Int("traces", 0, "acquisitions (0: per-workload default)")
	keyByte := fs.Int("keybyte", -1, "attacked key byte (-1: per-workload default)")
	rounds := fs.Int("rounds", 0, "simulated cipher rounds (0: target default)")
	avg := fs.Int("avg", 0, "per-acquisition averaging (0: default)")
	keyHex := fs.String("key", "", "attacked key in hex (default: the target's default key)")
	countsFlag := fs.String("counts", "100,200,400,800,1600", "rankevo checkpoint trace counts, comma-separated")
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
	info, err := tf.FinishTarget()
	if err != nil {
		return fail(err.Error())
	}
	name := target.Resolve(tf.Target)
	// A request reads seed 0 as seed 1; refuse it rather than run
	// another seed than the one asked for.
	if ef.Seed == 0 {
		return fail("-seed must be nonzero")
	}

	// One attack.Request per figure, all normalized before any runs, so
	// a bad flag fails the whole invocation up front.
	var reqs []attack.Request
	for _, fig := range parseFigures(tf.Figure, name) {
		req := attack.Request{
			Figure:   fig,
			Target:   tf.Target,
			Traces:   *traces,
			Averages: *avg,
			Rounds:   *rounds,
			Seed:     ef.Seed,
			Key:      *keyHex,
			Synth:    ef.Mode.String(),
		}
		// The request reads key byte 0 as the figure's default; only -1
		// asks for it here, so an explicit 0 stays byte 0.
		if *keyByte != -1 {
			if *keyByte == 0 && fig == attack.FigureFig4 {
				return fail("-keybyte 0 is not attackable with the Figure 4 model (it needs the preceding store; use 1..15)")
			}
			req.KeyByte = *keyByte
		}
		if fig == attack.FigureRankEvo {
			// The trace count is the last checkpoint.
			req.Traces = 0
			if req.Counts, err = parseCounts(*countsFlag); err != nil {
				return fail(err.Error())
			}
		}
		if err := req.Normalize(); err != nil {
			return fail(err.Error())
		}
		reqs = append(reqs, req)
	}

	env := engine.DefaultRunEnv()
	env.Config = ef.Config
	for _, req := range reqs {
		// The normalized key is spelled out in lowercase hex.
		key, err := hex.DecodeString(req.Key)
		if err != nil {
			return fail(err.Error())
		}
		switch req.Figure {
		case attack.FigureFig3:
			res, err := attack.RunCPA(name, key, req.Fig3Options(env))
			if err != nil {
				return fail(err.Error())
			}
			if name == target.Default {
				fmt.Fprintln(stdout, "=== Figure 3: CPA vs AES on the bare metal, model HW(SubBytes out) ===")
			} else {
				fmt.Fprintf(stdout, "=== CPA vs %s on the bare metal, table-driven class model ===\n", info.Name)
			}
			fmt.Fprintln(stdout, "synthesis:", synthDesc(res.Replayed, res.FallbackReason))
			fmt.Fprintf(stdout, "key byte %d: true %#02x, recovered %#02x (rank %d) over %d traces; confidence %.4f\n",
				res.KeyByte, res.TrueKey, res.Recovered, res.Rank, res.Traces, res.Confidence)
			fmt.Fprintln(stdout, "\nprimitive regions and their peak correlation (correct key):")
			for _, r := range res.Regions {
				fmt.Fprintf(stdout, "  %s\n", r)
			}
			fmt.Fprintln(stdout, "\ncorrelation vs time (correct key), downsampled:")
			fmt.Fprint(stdout, asciiPlot(res.CorrTrace, res.SamplePeriodUs, 72))
		case attack.FigureFig4:
			opt4 := req.Fig4Options(env)
			var aesKey [16]byte
			copy(aesKey[:], key)
			res, err := attack.RunFigure4(aesKey, opt4)
			if err != nil {
				return fail(err.Error())
			}
			fmt.Fprintln(stdout, "\n=== Figure 4: CPA vs AES on loaded Linux, model HD(consecutive SubBytes stores) ===")
			fmt.Fprintln(stdout, "synthesis:", synthDesc(res.Replayed, res.FallbackReason))
			fmt.Fprintf(stdout, "key byte %d: true %#02x, recovered %#02x (rank %d) over %d averaged-%d traces\n",
				res.KeyByte, res.TrueKey, res.Recovered, res.Rank, res.Traces, opt4.Averages)
			fmt.Fprintf(stdout, "best |r| %.4f vs runner-up %.4f; distinguishing confidence %.4f (paper: > 0.99)\n",
				res.BestCorr, res.SecondCorr, res.Confidence)
		case attack.FigureFullKey:
			rec, err := attack.RecoverKey(name, key, req.Fig3Options(env))
			if err != nil {
				return fail(err.Error())
			}
			fmt.Fprintf(stdout, "=== Full effective-key recovery vs %s ===\n", info.Name)
			fmt.Fprintf(stdout, "true      %x\nrecovered %x\n", rec.Key, rec.Recovered)
			fmt.Fprintf(stdout, "%d/%d bytes recovered over %d traces; ranks %v; guessing entropy %.2f bits\n",
				rec.BytesRecovered(), len(rec.Key), rec.Traces, rec.Ranks, rec.GuessingEntropy())
			if !rec.Success() {
				fmt.Fprintln(stdout, "recovery incomplete — increase -traces")
			}
		case attack.FigureRankEvo:
			opt := req.Fig3Options(env)
			curve, err := attack.RankEvolution(name, key, opt, req.Counts)
			if err != nil {
				return fail(err.Error())
			}
			fmt.Fprintf(stdout, "=== Rank evolution vs %s, key byte %d ===\n", info.Name, opt.KeyByte)
			for i, n := range curve.TraceCounts {
				fmt.Fprintf(stdout, "  %6d traces: rank %d\n", n, curve.Ranks[i])
			}
			if fs := curve.FirstSuccess(); fs > 0 {
				fmt.Fprintf(stdout, "first success at %d traces\n", fs)
			} else {
				fmt.Fprintln(stdout, "true key never ranked first — increase the counts")
			}
		}
	}
	return 0
}

// parseFigures resolves the -figure list into the ordered, duplicate-free
// workload list; Request.Normalize judges each name.
func parseFigures(figure, name string) []string {
	var figs []string
	if figure != "" {
		for _, f := range strings.Split(figure, ",") {
			if f = strings.TrimSpace(f); !slices.Contains(figs, f) {
				figs = append(figs, f)
			}
		}
	}
	if len(figs) == 0 {
		figs = []string{attack.FigureFig3}
		if name == target.Default {
			figs = append(figs, attack.FigureFig4)
		}
	}
	return figs
}

func parseCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-counts must be integers, got %q", part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// synthDesc describes how the traces were synthesized.
func synthDesc(replayed bool, reason string) string {
	switch {
	case replayed:
		return "compiled replay (bit-verified against full simulation)"
	case reason != "":
		return "full simulation (replay fell back: " + reason + ")"
	}
	return "full simulation"
}

// asciiPlot renders a |corr|-vs-time sparkline over width columns.
func asciiPlot(corr []float64, usPerSample float64, width int) string {
	if len(corr) == 0 {
		return ""
	}
	bins := make([]float64, width)
	per := (len(corr) + width - 1) / width
	maxAbs := 0.0
	for i, v := range corr {
		b := i / per
		if b >= width {
			b = width - 1
		}
		if math.Abs(v) > bins[b] {
			bins[b] = math.Abs(v)
		}
		if math.Abs(v) > maxAbs {
			maxAbs = math.Abs(v)
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	const rows = 8
	var sb strings.Builder
	for r := rows; r >= 1; r-- {
		fmt.Fprintf(&sb, "%5.2f |", maxAbs*float64(r)/rows)
		for _, v := range bins {
			if v/maxAbs*rows >= float64(r)-0.5 {
				sb.WriteByte('#')
			} else {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "      +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(&sb, "      0%*s%.1f us\n", width-6, "", float64(len(corr))*usPerSample)
	return sb.String()
}
