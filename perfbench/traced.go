package main

import (
	"fmt"
	"time"
)

// tracedRun runs every workload once untraced and once traced, then the
// layer probes, and derives the per-layer metrics. The order is fixed,
// whichever workload the run is named after: a workload's heap outlives
// it (scad's 100 MB trace set stays live for the store probes) and
// changes how often the collector runs for the next one. The spans are
// written to spansPath.
func tracedRun(cfg config, spansPath string) (result, error) {
	tr := newTracer()
	var t tally
	vals := map[string]float64{}
	put := func(name string, v float64) { vals[name] = v }

	passes := map[string][2]*passResult{} // untraced, traced
	var stream *attackStream
	var scad *scadWorkload
	for _, name := range workloadNames {
		w, err := newWorkload(name, cfg)
		if err != nil {
			return result{}, err
		}
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", name, err)
		}
		// Both measured passes sample the heap peaks, so the sampler's
		// cost cancels out of trace_overhead.
		warm := measured(w, nil, false)
		plain := measured(w, nil, true)
		traced := measured(w, tr, true)
		for _, p := range []*passResult{warm, plain, traced} {
			t.add(p)
		}
		passes[name] = [2]*passResult{plain, traced}
		report("traced_pass", map[string]any{"workload": name, "untraced": plain, "traced": traced})

		// CPU seconds, like the end-to-end metrics: the wall ratio moves
		// with the time the hypervisor steals (printed in the report line).
		put("trace_overhead."+name, traced.CPU/plain.CPU)
		put("runtime.peak_heap_mb."+name, plain.Runtime.PeakObjectsMB)
		put("runtime.alloc_mb_per_pass."+name, plain.Runtime.AllocMB)
		put("runtime.gc_cycles_per_pass."+name, plain.Runtime.GCCycles)
		put("runtime.gc_pause_ms_per_pass."+name, plain.Runtime.GCPauseMs)
		switch w := w.(type) {
		case *attackStream:
			stream = w
		case *scadWorkload:
			scad = w
		}
	}

	pr := &prober{cfg: cfg, tr: tr, put: put, budget: 300 * time.Millisecond}
	if cfg.shrink {
		pr.budget = 0
	}
	costs, err := pr.run(scad)
	if err != nil {
		return result{}, err
	}
	report("probe_counters", map[string]int64{"batch_vm_synthesizer_batch_runs": pr.batchRuns})

	spans := tr.snapshot()
	for name, p := range passes {
		report("accounting", account(name, p[1], spans))
	}
	attackLayers(put, stream, passes["attack-stream"], spans, costs)
	campaignLayers(put, passes["campaigns"], spans)
	scadLayers(put, passes["scad"])

	if err := writeSpans(spansPath, spans); err != nil {
		return result{}, err
	}
	report("spans", map[string]any{"path": spansPath, "count": len(spans)})
	m, err := declared(perLayer, vals)
	if err != nil {
		return result{}, fmt.Errorf("traced run: %w", err)
	}
	return t.result(m), nil
}

// account breaks a traced pass's wall time down by the names of its
// direct child spans; self_s is the part no child covers.
func account(name string, p *passResult, spans []span) map[string]any {
	children := map[string]float64{}
	for _, s := range spans {
		if s.Parent == p.Root {
			children[s.Name] += s.dur().Seconds()
		}
	}
	self := selfTimes(spans)[p.Root].Seconds()
	return map[string]any{"workload": name, "wall_s": p.Wall, "cpu_s": p.CPU, "children_s": children, "self_s": self}
}

// attackLayers derives attack-stream's per-layer metrics: per-call
// spans, the batch-path ratio, and the shares of the traced pass the
// probes account for.
func attackLayers(put func(string, float64), w *attackStream, p [2]*passResult, spans []span, c probeCosts) {
	plain, traced := p[0], p[1]
	put("attack_traces_per_s", plain.Metrics["attack_traces_per_s"])
	for _, name := range []string{"attack.fig3_aes", "attack.fullkey_aes", "attack.fig3_present", "attack.fig3_speck64", "attack.fig3_chacha20"} {
		put(name+"_ms", median(durations(spans, name, traced.Root)))
	}
	runs, batched := 0, 0
	for _, q := range p {
		runs += q.Counters["cpa_runs"].(int)
		batched += q.Counters["batched_runs"].(int)
	}
	put("engine.batched_ratio", float64(batched)/float64(runs))

	// Shares of the traced pass's CPU seconds: the probes time single
	// calls, so their sum is CPU work, and stolen time stays out of both.
	calls := float64(len(w.calls))
	window := calls * (c.verifyMs + c.compileMs) / 1e3
	put("engine.verify_share", window/traced.CPU)
	perTrace := 0.0
	for _, call := range w.calls {
		perTrace += float64(call.opt.Traces) * (c.batchVMUs + c.expandUs + c.classAddUs*float64(call.banks())) / 1e6
	}
	put("engine.unaccounted_share", 1-(perTrace+window)/traced.CPU)
}

// campaignLayers derives the campaign per-layer metrics from the traced
// pass: time per scenario kind and per spec, and the runner's own time.
func campaignLayers(put func(string, float64), p [2]*passResult, spans []span) {
	plain, traced := p[0], p[1]
	put("campaign_s", plain.Metrics["campaign_s"])
	scenarios := 0.0
	for _, kind := range []string{"table1", "figure2", "table2", "fig3", "fig4", "fullkey", "rankevo", "maskcpa", "tvla"} {
		s := sum(durations(spans, "campaign.scenario."+kind, traced.Root)) / 1e3
		scenarios += s
		put("campaign."+kind+"_s", s)
	}
	for _, name := range campaignSpecs {
		put("campaign."+name+"_s", traced.Metrics["campaign."+name+"_s"])
	}
	put("campaign.self_s", traced.Wall-scenarios)
}

// scadLayers copies scad's per-layer figures: the end-to-end figures
// from the untraced pass, the serve-layer detail from the traced one.
func scadLayers(put func(string, float64), p [2]*passResult) {
	plain, traced := p[0], p[1]
	for _, name := range []string{"ingest_mb_per_s", "analyze_traces_per_s", "attack_miss_p50_ms", "attack_hit_p50_ms"} {
		put(name, plain.Metrics[name])
	}
	for _, name := range []string{
		"serve.attack_miss_tail_ms", "serve.attack_hit_tail_ms", "serve.upload_part_p50_ms",
		"serve.commit_s", "serve.cache_hit_ratio", "serve.rejected_429",
	} {
		if v, ok := traced.Metrics[name]; ok {
			put(name, v)
		}
	}
}
