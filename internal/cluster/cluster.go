// Package cluster runs a campaign across a fleet of scad workers.
//
// The coordinator is campaign.Drive, the same scenario driver a
// single-process run uses, with one slot per worker that answers its
// readiness probe at start. Every slot pulls scenarios from the
// driver's one shared queue and drives each through the scad HTTP API
// (POST /v1/scenario) with bounded, jittered retries. The workers'
// content-addressed caches double as the shared result store: every
// dispatch is preceded by a read-through GET on the scenario
// fingerprint, and freshly computed bodies are replicated to the peers
// (PUT /v1/results/{fingerprint}), so a scenario handed back by a lost
// worker, or dispatched again after a torn response, is a lookup rather
// than a recomputation. A worker that stops answering surrenders its
// slot with campaign.ErrSlotLost: its in-flight scenario goes back on
// the queue for the survivors, and losing every worker fails the run.
//
// None of this scheduling is visible in the artifacts. Scenario results
// are pure functions of (campaign seed, scenario ID) and the driver
// merges them in enumeration order, so the Results are byte-identical
// to a single-process cmd/campaign run for any worker count, kill
// schedule, or completion order. The fault-injection tests in this
// package hold that bar under scripted failures.
package cluster

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/campaign"
)

// Options configures one coordinated run.
type Options struct {
	// Workers lists the scad worker base URLs (e.g.
	// http://127.0.0.1:8080). At least one is required.
	Workers []string
	// RequestTimeout bounds each scenario POST (0: no per-request bound;
	// scenarios legitimately take seconds to minutes).
	RequestTimeout time.Duration
	// Retry bounds the per-worker retry loop; zero fields take defaults.
	Retry RetryPolicy
	// CheckpointPath, when non-empty, appends every completed scenario to
	// the same fsynced JSONL format cmd/campaign writes, so an
	// interrupted coordinator resumes without re-dispatching.
	CheckpointPath string
	// Resume replays an existing checkpoint at CheckpointPath, as
	// campaign.RunOptions.Resume does.
	Resume bool
	// Seed seeds the scheduling jitter RNG only — it cannot affect result
	// bytes (0: fixed default).
	Seed int64
	// Log receives one line per completed scenario and per worker that
	// is not ready at start (nil: silent).
	Log io.Writer
	// OnScenario observes every completed scenario; cached reports a
	// checkpoint or cache hit.
	OnScenario func(sr *campaign.ScenarioResult, cached bool)
}

// Stats summarizes where one run's scenarios came from and how rough
// the ride was. Scenarios and CheckpointHits are set when the run
// succeeds. Repartitioned counts the scenarios lost workers handed back
// to the shared queue: one per worker lost mid-run, none for a worker
// that was not ready at start.
type Stats struct {
	Scenarios      int `json:"scenarios"`
	CheckpointHits int `json:"checkpoint_hits"`
	CacheHits      int `json:"cache_hits"`
	Executed       int `json:"executed"`
	Retries        int `json:"retries"`
	WorkersLost    int `json:"workers_lost"`
	Repartitioned  int `json:"repartitioned"`
	PeerFills      int `json:"peer_fills"`
	PeerFillErrors int `json:"peer_fill_errors"`
}

// Run executes spec across the cluster and returns the same Results a
// single-process run produces.
func Run(ctx context.Context, spec *campaign.Spec, opt Options) (*campaign.Results, Stats, error) {
	var stats Stats
	if len(opt.Workers) == 0 {
		return nil, stats, fmt.Errorf("cluster: no workers configured")
	}
	jitter := newJitterSource(opt.Seed)
	var ctrs counters
	cr := &clusterRunner{
		campaign: spec.Name,
		seed:     spec.Seed,
		key:      spec.Key,
		peerFill: len(opt.Workers) > 1,
	}
	for _, base := range opt.Workers {
		cr.clients = append(cr.clients, newWorkerClient(base, opt.RequestTimeout, opt.Retry, jitter, &ctrs))
	}

	// Probe every worker before dispatching: a worker that is down at
	// start gets no slot, rather than burning a retry budget on its
	// first scenario.
	var slots []campaign.Runner
	for i, cl := range cr.clients {
		if !cl.healthy(ctx) {
			if opt.Log != nil {
				fmt.Fprintf(opt.Log, "worker %d (%s): not ready at start\n", i, cl.base)
			}
			stats.WorkersLost++
			continue
		}
		slots = append(slots, func(ctx context.Context, sc *campaign.Scenario) (*campaign.ScenarioResult, bool, error) {
			return cr.run(ctx, i, sc)
		})
	}

	res, err := campaign.Drive(spec, campaign.RunOptions{
		CheckpointPath: opt.CheckpointPath,
		Resume:         opt.Resume,
		Log:            opt.Log,
		OnScenario:     opt.OnScenario,
		Ctx:            ctx,
	}, slots)
	stats.Executed = int(ctrs.executed.Load())
	stats.CacheHits = int(ctrs.cacheHits.Load())
	stats.Retries = int(ctrs.retries.Load())
	stats.Repartitioned = int(ctrs.lost.Load())
	stats.WorkersLost += stats.Repartitioned
	stats.PeerFills = int(ctrs.peerFills.Load())
	stats.PeerFillErrors = int(ctrs.peerFillErrors.Load())
	if err != nil {
		return nil, stats, err
	}
	// Each pending scenario completed exactly once, on a slot that
	// either executed it or found it cached.
	stats.Scenarios = len(res.Scenarios)
	stats.CheckpointHits = stats.Scenarios - stats.Executed - stats.CacheHits
	return res, stats, nil
}
