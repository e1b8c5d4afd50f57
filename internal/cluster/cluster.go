// Package cluster shards a campaign across a fleet of scad workers.
//
// The coordinator enumerates the campaign's scenarios, partitions them
// round-robin across the workers, and drives each scenario through the
// scad HTTP API (POST /v1/scenario) with bounded, jittered retries.
// The workers' content-addressed caches double as the shared result
// store: every dispatch is preceded by a read-through GET on the
// scenario fingerprint, and freshly computed bodies are replicated to
// the peers (PUT /v1/results/{fingerprint}), so a re-partitioned or
// duplicated scenario is a lookup rather than a recomputation. A worker
// that stops answering is declared lost and its remaining scenarios are
// re-dealt onto the survivors; losing every worker fails the run.
//
// None of this scheduling is visible in the artifacts. Scenario results
// are pure functions of (campaign seed, scenario ID), so the merged
// Results — assembled in enumeration order by campaign.MergeResults —
// are byte-identical to a single-process cmd/campaign run for any
// worker count, kill schedule, or completion order. The fault-injection
// tests in this package hold that bar under scripted failures.
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
	// Resume replays an existing checkpoint at CheckpointPath instead of
	// refusing to overwrite it.
	Resume bool
	// Seed seeds the scheduling jitter RNG only — it cannot affect result
	// bytes (0: fixed default).
	Seed int64
	// Log receives one line per completed scenario and per topology
	// change (nil: silent).
	Log io.Writer
	// OnScenario observes every completed scenario; cached reports a
	// checkpoint or cache hit.
	OnScenario func(sr *campaign.ScenarioResult, cached bool)
}

// Stats summarizes where one run's scenarios came from and how rough
// the ride was.
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

// Run executes spec across the cluster and merges the shards into the
// same Results a single-process run produces.
func Run(ctx context.Context, spec *campaign.Spec, opt Options) (*campaign.Results, Stats, error) {
	var stats Stats
	if len(opt.Workers) == 0 {
		return nil, stats, fmt.Errorf("cluster: no workers configured")
	}
	if err := spec.Validate(); err != nil {
		return nil, stats, err
	}
	scenarios, err := spec.Enumerate()
	if err != nil {
		return nil, stats, err
	}
	stats.Scenarios = len(scenarios)
	logf := func(format string, args ...any) {
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, format+"\n", args...)
		}
	}

	// Replay the checkpoint first: scenarios already on disk are settled
	// and never reach the dispatcher.
	var done map[string]*campaign.ScenarioResult
	var ckpt *campaign.Checkpoint
	if opt.CheckpointPath != "" {
		done, ckpt, err = campaign.OpenCheckpoint(opt.CheckpointPath, spec, opt.Resume)
		if err != nil {
			return nil, stats, err
		}
		defer ckpt.Close()
	}
	byID := make(map[string]*campaign.ScenarioResult, len(scenarios))
	var pendingIdx []int
	for i := range scenarios {
		if sr, ok := done[scenarios[i].ID]; ok {
			byID[sr.ID] = sr
			stats.CheckpointHits++
			if opt.OnScenario != nil {
				opt.OnScenario(sr, true)
			}
			continue
		}
		pendingIdx = append(pendingIdx, i)
	}
	if stats.CheckpointHits > 0 {
		logf("checkpoint: %d/%d scenarios already complete", stats.CheckpointHits, len(scenarios))
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

	d := newDispatcher(scenarios, pendingIdx, len(opt.Workers), cr, func(w int, sr *campaign.ScenarioResult, cached bool) error {
		if ckpt != nil {
			if err := ckpt.Append(sr); err != nil {
				return err
			}
		}
		disposition := "executed"
		if cached {
			disposition = "cache hit"
		}
		logf("worker %d: %s (%s)", w, sr.ID, disposition)
		if opt.OnScenario != nil {
			opt.OnScenario(sr, cached)
		}
		return nil
	})

	// Probe every worker before dispatching: a worker that is down at
	// start simply never receives a queue, rather than burning a retry
	// budget per scenario.
	for i, cl := range cr.clients {
		if !cl.healthy(ctx) {
			logf("worker %d (%s): not ready at start, re-partitioning its shard", i, cl.base)
			d.markDead(i, fmt.Errorf("%w: %s: not ready at start", ErrWorkerLost, cl.base))
		}
	}

	if err := d.run(ctx); err != nil {
		return nil, statsFrom(stats, d, &ctrs), err
	}
	results, _, _ := d.snapshot()
	for id, sr := range results {
		byID[id] = sr
	}
	out, err := campaign.MergeResults(spec, scenarios, byID)
	if err != nil {
		return nil, statsFrom(stats, d, &ctrs), err
	}
	return out, statsFrom(stats, d, &ctrs), nil
}

func statsFrom(stats Stats, d *dispatcher, c *counters) Stats {
	_, lost, repartitioned := d.snapshot()
	stats.WorkersLost = lost
	stats.Repartitioned = repartitioned
	stats.CacheHits += int(c.cacheHits.Load())
	stats.Executed = int(c.executed.Load())
	stats.Retries = int(c.retries.Load())
	stats.PeerFills = int(c.peerFills.Load())
	stats.PeerFillErrors = int(c.peerFillErrors.Load())
	return stats
}
