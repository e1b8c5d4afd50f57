// Command campaign drives the declarative experiment subsystem: it
// loads a campaign spec (internal/campaign), executes every enumerated
// scenario — micro-architectural ablation × workload × acquisition
// point — over the engine worker pool, and writes the structured
// results (JSON, CSV) together with a generated Markdown report.
//
// One invocation against the committed paper spec reproduces every
// table and figure of the paper:
//
//	campaign -spec campaigns/paper.json -out out/
//
// Results are bit-identical for any -workers/-shards combination and
// for interrupted runs resumed with -resume. The experiment docs are
// generated artifacts of the same results:
//
//	campaign -results campaigns/paper.results.json -update-doc EXPERIMENTS.md
//
// rewrites the sections of EXPERIMENTS.md that the paper campaign owns;
// go test ./internal/campaign fails when the committed docs drift from
// the committed results.
//
// Usage:
//
//	campaign -spec FILE [-out DIR] [-workers W] [-shards S] [-target T] [-resume] [-quiet]
//	campaign -results FILE -report            # render Markdown to stdout
//	campaign -results FILE -update-doc FILE   # splice generated sections
//	campaign -init-spec                       # print an example spec
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/campaign"
	"repro/internal/cliutil"
)

// exampleSpec is the -init-spec starter: one scenario per workload kind
// at quick scales, plus commented axes are documented in the package
// godoc rather than JSON (which has no comments).
const exampleSpec = `{
  "name": "example",
  "seed": 1,
  "workloads": [
    {"kind": "table1"},
    {"kind": "figure2"},
    {"kind": "table2", "traces": [4000], "rows": [1, 5]},
    {"kind": "fig3", "traces": [800], "rounds": 1},
    {"kind": "fig4", "traces": [100]},
    {"kind": "fullkey", "traces": [700], "rounds": 1},
    {"kind": "rankevo", "counts": [100, 200, 400, 800], "rounds": 1},
    {"kind": "table2", "ablations": ["no-nop-wb-zero", "no-align-buffer"], "traces": [4000], "rows": [1, 7]},
    {"kind": "maskcpa", "gadgets": ["sbox"], "countermeasures": ["none", "mask"], "orders": [1, 2], "traces": [1500]},
    {"kind": "tvla", "rows": [2, 6], "traces": [600]}
  ]
}
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses argv and executes the requested mode. It returns the
// process exit code: 2 for a flag error, 1 for any other failure.
func run(argv []string, stdout, stderr io.Writer) int {
	const tool = "campaign"
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)

	var ef cliutil.EngineFlags
	ef.RegisterWorkersUsage(fs, "per-scenario engine workers (0: spec value, else one per core)")
	var tf cliutil.TargetFlags
	tf.RegisterTargetUsage(fs,
		`run only the named cipher target's scenarios ("": the whole spec); surviving scenario IDs and seeds are unchanged`)
	specPath := fs.String("spec", "", "campaign spec (JSON) to execute")
	resultsPath := fs.String("results", "", "existing results JSON to render or splice instead of running")
	outDir := fs.String("out", "out", "output directory for results.json, results.csv, report.md and the checkpoint")
	shards := fs.Int("shards", 0, "concurrently executed scenarios (0: spec value, else 1)")
	resume := fs.Bool("resume", false, "resume from the checkpoint in -out instead of starting over")
	report := fs.Bool("report", false, "with -results: print the Markdown report to stdout")
	updateDoc := fs.String("update-doc", "", "with -results: rewrite this file's regions owned by the results' campaign")
	initSpec := fs.Bool("init-spec", false, "print an example spec and exit")
	quiet := fs.Bool("quiet", false, "suppress per-scenario progress lines")
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
	if *shards < 0 {
		return fail("-shards must be >= 0")
	}

	if *initSpec {
		fmt.Fprint(stdout, exampleSpec)
		return 0
	}

	if *resultsPath != "" {
		res, err := campaign.LoadResults(*resultsPath)
		if err != nil {
			return fail(err.Error())
		}
		switch {
		case *updateDoc != "":
			if err := spliceDoc(stdout, *updateDoc, res); err != nil {
				return fail(err.Error())
			}
		case *report:
			fmt.Fprint(stdout, campaign.Report(res))
		default:
			return fail("with -results, pass -report or -update-doc FILE")
		}
		return 0
	}

	if *specPath == "" {
		return fail("pass -spec FILE (or -results FILE, or -init-spec); see -h")
	}
	spec, err := campaign.LoadSpec(*specPath)
	if err != nil {
		return fail(err.Error())
	}
	if tf.Target != "" {
		if err := spec.FilterTarget(tf.Target); err != nil {
			return fail(err.Error())
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fail(err.Error())
	}
	opt := campaign.RunOptions{
		Workers:        ef.Workers,
		Lanes:          ef.Lanes,
		Shards:         *shards,
		CheckpointPath: filepath.Join(*outDir, "checkpoint.jsonl"),
		Resume:         *resume,
	}
	if !*quiet {
		opt.Log = stderr
	}
	res, err := campaign.Run(spec, opt)
	if err != nil {
		return fail(err.Error())
	}
	paths, err := campaign.WriteArtifacts(*outDir, res)
	if err != nil {
		return fail(err.Error())
	}

	fmt.Fprintf(stdout, "campaign %q: %d scenarios\n", res.Campaign, len(res.Scenarios))
	for i := range res.Scenarios {
		sr := &res.Scenarios[i]
		fmt.Fprintf(stdout, "  %-60s %s\n", sr.ID, sr.Headline())
	}
	fmt.Fprintf(stdout, "wrote %s\n", strings.Join(paths, ", "))
	return 0
}

// spliceDoc rewrites the regions of path that res's campaign owns, in
// place.
func spliceDoc(stdout io.Writer, path string, res *campaign.Results) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	updated, err := campaign.UpdateDocSections(string(raw), res)
	if err != nil {
		return err
	}
	if updated == string(raw) {
		fmt.Fprintf(stdout, "%s: up to date\n", path)
		return nil
	}
	if err := os.WriteFile(path, []byte(updated), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: regenerated %s campaign sections\n", path, res.Campaign)
	return nil
}
