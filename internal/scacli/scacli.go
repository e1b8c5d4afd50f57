// Package scacli implements cmd/scacpa's target-generic CPA command
// line: the §5 bare-metal attack (fig3 workload) against any registered
// cipher target, the AES-specific loaded-Linux attack (fig4), and the
// full-key and rank-evolution workloads built on the fig3 model.
package scacli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/attack"
	"repro/internal/cliutil"
	"repro/internal/engine"
	"repro/internal/target"
)

// Main parses argv and runs the selected workloads. It returns the
// process exit code.
func Main(argv []string, stdout, stderr io.Writer) int {
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

	figures, err := parseFigures(tf.Figure, name)
	if err != nil {
		return fail(err.Error())
	}
	switch {
	case *traces < 0:
		return fail(fmt.Sprintf("-traces must be >= 0, got %d", *traces))
	case *rounds < 0 || *rounds > info.MaxRounds:
		return fail(fmt.Sprintf("-rounds must be in 0..%d for %s, got %d", info.MaxRounds, info.Name, *rounds))
	case *avg < 0:
		return fail(fmt.Sprintf("-avg must be >= 0, got %d", *avg))
	case *keyByte < -1 || *keyByte >= info.AttackBytes:
		return fail(fmt.Sprintf("-keybyte must be in 0..%d for %s (or -1 for the default), got %d",
			info.AttackBytes-1, info.Name, *keyByte))
	}
	key, err := info.ParseKey(*keyHex)
	if err != nil {
		return fail(err.Error())
	}

	options := func() attack.Fig3Options {
		opt := attack.DefaultFig3Options()
		if name != target.Default {
			opt.Rounds = info.DefaultRounds
		}
		if *traces > 0 {
			opt.Traces = *traces
		}
		if *keyByte >= 0 {
			opt.KeyByte = *keyByte
		}
		if *rounds > 0 {
			opt.Rounds = *rounds
		}
		if *avg > 0 {
			opt.Averages = *avg
		}
		opt.Seed = ef.Seed
		opt.Workers = ef.Workers
		opt.Lanes = ef.Lanes
		opt.Synth = ef.Mode
		return opt
	}

	for _, fig := range figures {
		switch fig {
		case attack.FigureFig3:
			res, err := attack.RunCPA(name, key, options())
			if err != nil {
				return fail(err.Error())
			}
			if name == target.Default {
				fmt.Fprintln(stdout, "=== Figure 3: CPA vs AES on the bare metal, model HW(SubBytes out) ===")
			} else {
				fmt.Fprintf(stdout, "=== CPA vs %s on the bare metal, table-driven class model ===\n", info.Name)
			}
			fmt.Fprintln(stdout, "synthesis:", synthDesc(ef.Mode, res.Replayed, res.FallbackReason))
			fmt.Fprintf(stdout, "key byte %d: true %#02x, recovered %#02x (rank %d) over %d traces; confidence %.4f\n",
				res.KeyByte, res.TrueKey, res.Recovered, res.Rank, res.Traces, res.Confidence)
			fmt.Fprintln(stdout, "\nprimitive regions and their peak correlation (correct key):")
			for _, r := range res.Regions {
				fmt.Fprintf(stdout, "  %s\n", r)
			}
			fmt.Fprintln(stdout, "\ncorrelation vs time (correct key), downsampled:")
			fmt.Fprint(stdout, asciiPlot(res.CorrTrace, res.SamplePeriodUs, 72))
		case attack.FigureFig4:
			opt4 := attack.DefaultFig4Options()
			if *traces > 0 {
				opt4.Traces = *traces
			}
			if *keyByte > 0 {
				opt4.KeyByte = *keyByte
			}
			if *keyByte == 0 {
				return fail("-keybyte 0 is not attackable with the Figure 4 model (it needs the preceding store; use 1..15)")
			}
			if *rounds > 0 {
				opt4.Rounds = *rounds
			}
			if *avg > 0 {
				opt4.Averages = *avg
			}
			opt4.Seed = ef.Seed
			opt4.Workers = ef.Workers
			opt4.Lanes = ef.Lanes
			opt4.Synth = ef.Mode
			var aesKey [16]byte
			copy(aesKey[:], key)
			res, err := attack.RunFigure4(aesKey, opt4)
			if err != nil {
				return fail(err.Error())
			}
			fmt.Fprintln(stdout, "\n=== Figure 4: CPA vs AES on loaded Linux, model HD(consecutive SubBytes stores) ===")
			fmt.Fprintln(stdout, "synthesis:", synthDesc(ef.Mode, res.Replayed, res.FallbackReason))
			fmt.Fprintf(stdout, "key byte %d: true %#02x, recovered %#02x (rank %d) over %d averaged-%d traces\n",
				res.KeyByte, res.TrueKey, res.Recovered, res.Rank, res.Traces, opt4.Averages)
			fmt.Fprintf(stdout, "best |r| %.4f vs runner-up %.4f; distinguishing confidence %.4f (paper: > 0.99)\n",
				res.BestCorr, res.SecondCorr, res.Confidence)
		case attack.FigureFullKey:
			rec, err := attack.RecoverKey(name, key, options())
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
			counts, err := parseCounts(*countsFlag)
			if err != nil {
				return fail(err.Error())
			}
			opt := options()
			curve, err := attack.RankEvolutionFor(name, key, opt, counts)
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

// parseFigures resolves the -figure list into the ordered workload
// list.
func parseFigures(figure, name string) ([]string, error) {
	var figs []string
	seen := map[string]bool{}
	add := func(f string) error {
		switch f {
		case attack.FigureFig3, attack.FigureFig4, attack.FigureFullKey, attack.FigureRankEvo:
		default:
			return fmt.Errorf("unknown figure %q (want fig3, fig4, fullkey or rankevo)", f)
		}
		if f == attack.FigureFig4 && name != target.Default {
			return fmt.Errorf("figure fig4's model is AES-specific; target %s supports fig3, fullkey and rankevo", name)
		}
		if !seen[f] {
			seen[f] = true
			figs = append(figs, f)
		}
		return nil
	}
	if figure != "" {
		for _, f := range strings.Split(figure, ",") {
			if err := add(strings.TrimSpace(f)); err != nil {
				return nil, err
			}
		}
	}
	if len(figs) == 0 {
		figs = []string{attack.FigureFig3}
		if name == target.Default {
			figs = append(figs, attack.FigureFig4)
		}
	}
	return figs, nil
}

func parseCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 8 {
			return nil, fmt.Errorf("-counts must be integers >= 8, got %q", part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// synthDesc describes how the traces were synthesized. Only auto mode
// runs the verification window; forced replay trusts the schedule.
func synthDesc(mode engine.Mode, replayed bool, reason string) string {
	switch {
	case replayed && mode == engine.ModeReplay:
		return "compiled replay (forced, schedule invariance not verified)"
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
