// Command scadctl coordinates a campaign across a cluster of scad
// workers. It enumerates the spec's scenarios, deals them round-robin
// over the workers' scenario endpoint (internal/cluster), rides out
// worker loss by re-partitioning onto the survivors, and merges the
// shards into results byte-identical to a single-process
// cmd/campaign run — same results.json, results.csv and report.md.
//
// It also drives real-trace ingestion against a scad started with
// -data: resumable part-wise uploads into the worker's chunked trace
// store, commits, and out-of-core analyses (see ingest.go; degraded
// results exit 3, refused commits exit 1).
//
// Usage:
//
//	scadctl run -spec FILE -workers URL[,URL...] [-out DIR] [-resume]
//	        [-timeout D] [-attempts N] [-quiet]
//	scadctl status  -workers URL[,URL...]   # one-line cluster summary
//	scadctl workers -workers URL[,URL...]   # per-worker health table
//	scadctl upload  -server URL -file traces.bin [-part N] [-chunk N] [-commit=false]
//	scadctl commit  -server URL -id ID
//	scadctl analyze -server URL -set ID [-kind cpa|tvla] [-key-byte N] [-key HEX]
//	scadctl store   -dir DIR [-json]        # verify a local trace store
//
// Example against three local workers:
//
//	scad -addr :8715 -spill w1.jsonl &
//	scad -addr :8716 -spill w2.jsonl &
//	scad -addr :8717 -spill w3.jsonl &
//	scadctl run -spec campaigns/paper.json \
//	    -workers http://127.0.0.1:8715,http://127.0.0.1:8716,http://127.0.0.1:8717
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
)

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "scadctl:", msg)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: scadctl {run|status|workers|upload|commit|analyze|store} [flags]; scadctl <cmd> -h for details")
	os.Exit(2)
}

// workerList parses the -workers flag: comma-separated base URLs,
// trailing slashes trimmed so path concatenation stays canonical.
func workerList(raw string) []string {
	var out []string
	for _, w := range strings.Split(raw, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, strings.TrimRight(w, "/"))
		}
	}
	return out
}

func signalContext() context.Context {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return ctx
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		cmdRun(os.Args[2:])
	case "status":
		cmdStatus(os.Args[2:], false)
	case "workers":
		cmdStatus(os.Args[2:], true)
	case "upload":
		cmdUpload(os.Args[2:])
	case "commit":
		cmdCommit(os.Args[2:])
	case "analyze":
		cmdAnalyze(os.Args[2:])
	case "store":
		cmdStore(os.Args[2:])
	default:
		usage()
	}
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("scadctl run", flag.ExitOnError)
	specPath := fs.String("spec", "", "campaign spec (JSON) to execute")
	workers := fs.String("workers", "", "comma-separated scad worker base URLs")
	outDir := fs.String("out", "out", "output directory for results.json, results.csv, report.md and the checkpoint")
	resume := fs.Bool("resume", false, "resume from the checkpoint in -out instead of starting over")
	timeout := fs.Duration("timeout", 0, "per-scenario request timeout (0: unbounded)")
	attempts := fs.Int("attempts", 0, "execution attempts per scenario on one worker before it is declared lost (0: 6)")
	seed := fs.Int64("seed", 0, "retry-jitter seed; scheduling only, never affects result bytes")
	quiet := fs.Bool("quiet", false, "suppress per-scenario progress lines")
	fs.Parse(args)

	if *specPath == "" {
		fail("run: pass -spec FILE")
	}
	urls := workerList(*workers)
	if len(urls) == 0 {
		fail("run: pass -workers URL[,URL...]")
	}
	spec, err := campaign.LoadSpec(*specPath)
	if err != nil {
		fail(err.Error())
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fail(err.Error())
	}
	opt := cluster.Options{
		Workers:        urls,
		RequestTimeout: *timeout,
		Retry:          cluster.RetryPolicy{MaxAttempts: *attempts},
		CheckpointPath: filepath.Join(*outDir, "checkpoint.jsonl"),
		Resume:         *resume,
		Seed:           *seed,
	}
	if !*quiet {
		opt.Log = os.Stderr
	}
	start := time.Now()
	res, stats, err := cluster.Run(signalContext(), spec, opt)
	if err != nil {
		fail(err.Error())
	}

	jsonPath := filepath.Join(*outDir, "results.json")
	csvPath := filepath.Join(*outDir, "results.csv")
	mdPath := filepath.Join(*outDir, "report.md")
	if err := os.WriteFile(jsonPath, res.EncodeJSON(), 0o644); err != nil {
		fail(err.Error())
	}
	if err := os.WriteFile(csvPath, []byte(res.CSV()), 0o644); err != nil {
		fail(err.Error())
	}
	if err := os.WriteFile(mdPath, []byte(campaign.Report(res)), 0o644); err != nil {
		fail(err.Error())
	}

	fmt.Printf("campaign %q: %d scenarios over %d workers in %s\n",
		res.Campaign, stats.Scenarios, len(urls), time.Since(start).Round(time.Millisecond))
	fmt.Printf("  executed %d, cache hits %d, checkpoint hits %d, retries %d\n",
		stats.Executed, stats.CacheHits, stats.CheckpointHits, stats.Retries)
	if stats.WorkersLost > 0 {
		fmt.Printf("  workers lost %d, scenarios re-partitioned %d\n", stats.WorkersLost, stats.Repartitioned)
	}
	fmt.Printf("wrote %s, %s, %s\n", jsonPath, csvPath, mdPath)
}

func cmdStatus(args []string, perWorker bool) {
	name := "status"
	if perWorker {
		name = "workers"
	}
	fs := flag.NewFlagSet("scadctl "+name, flag.ExitOnError)
	workers := fs.String("workers", "", "comma-separated scad worker base URLs")
	timeout := fs.Duration("timeout", 2*time.Second, "per-worker probe timeout")
	asJSON := fs.Bool("json", false, "print the probe results as JSON")
	fs.Parse(args)

	urls := workerList(*workers)
	if len(urls) == 0 {
		fail(name + ": pass -workers URL[,URL...]")
	}
	statuses := cluster.Probe(signalContext(), urls, *timeout)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(statuses); err != nil {
			fail(err.Error())
		}
	} else if perWorker {
		for _, st := range statuses {
			switch {
			case st.Err != "":
				fmt.Printf("%-32s unreachable (%s)\n", st.URL, st.Err)
			case !st.Alive:
				fmt.Printf("%-32s not ready\n", st.URL)
			default:
				fmt.Printf("%-32s ready  jobs=%d cache=%d spilled=%d saturated=%v\n",
					st.URL, st.Health.JobsActive, st.Health.CacheEntries, st.Health.Spilled, st.Health.Saturated)
			}
		}
	} else {
		ready, jobs, entries := 0, 0, 0
		for _, st := range statuses {
			if st.Alive {
				ready++
				jobs += st.Health.JobsActive
				entries += st.Health.CacheEntries
			}
		}
		fmt.Printf("%d/%d workers ready, %d jobs active, %d cached results\n",
			ready, len(statuses), jobs, entries)
	}

	// A degraded cluster exits nonzero so scripts can gate on readiness.
	for _, st := range statuses {
		if !st.Alive {
			os.Exit(1)
		}
	}
}
