package main

import (
	"fmt"
	"math"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root declares the same lists (TestBenchmarkJSONMatches).
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_cpu_s", "s"},
	{"pass_unstolen_wall_s", "s"},
}

// perLayer are the traced run's metrics.
var perLayer = []metricDef{
	// attack-stream: engine and its layers, probed and per call.
	{"attack_traces_per_s", "1/s"},
	{"engine.verify_ms", "ms"},
	{"replay.compile_ms", "ms"},
	{"engine.verify_share", "ratio"},
	{"replay.batch_vm_us_per_trace", "us"},
	{"power.expand_us_per_trace", "us"},
	{"sca.class_add_us_per_trace", "us"},
	{"sca.rank_ms", "ms"},
	{"engine.batched_ratio", "ratio"},
	{"engine.unaccounted_share", "ratio"},
	{"attack.fig3_aes_ms", "ms"},
	{"attack.fullkey_aes_ms", "ms"},
	{"attack.fig3_present_ms", "ms"},
	{"attack.fig3_speck64_ms", "ms"},
	{"attack.fig3_chacha20_ms", "ms"},
	// campaigns: scalar paths, per scenario kind and per spec.
	{"campaign_s", "s"},
	{"pipeline.simulate_us_per_run", "us"},
	{"pipeline.sim_cycles_per_s", "cycles/s"},
	{"pipeline.cycles_per_run", "cycles"},
	{"power.acquire_us_per_trace", "us"},
	{"power.synthesize_us_per_trace", "us"},
	{"masking.gadget_run_us", "us"},
	{"sca.class2_add_us_per_trace", "us"},
	{"campaign.table1_s", "s"},
	{"campaign.figure2_s", "s"},
	{"campaign.table2_s", "s"},
	{"campaign.fig3_s", "s"},
	{"campaign.fig4_s", "s"},
	{"campaign.fullkey_s", "s"},
	{"campaign.rankevo_s", "s"},
	{"campaign.maskcpa_s", "s"},
	{"campaign.tvla_s", "s"},
	{"campaign.paper_s", "s"},
	{"campaign.countermeasures_s", "s"},
	{"campaign.multicipher_s", "s"},
	{"campaign.smoke_s", "s"},
	{"campaign.self_s", "s"},
	// scad: serve and tracestore.
	{"ingest_mb_per_s", "MB/s"},
	{"analyze_traces_per_s", "1/s"},
	{"attack_miss_p50_ms", "ms"},
	{"attack_hit_p50_ms", "ms"},
	{"serve.attack_miss_tail_ms", "ms"},
	{"serve.attack_hit_tail_ms", "ms"},
	{"serve.upload_part_p50_ms", "ms"},
	{"serve.commit_s", "s"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.rejected_429", "count"},
	{"tracestore.ingest_mb_per_s", "MB/s"},
	{"tracestore.read_mb_per_s", "MB/s"},
	{"attack.store_cpa_traces_per_s", "1/s"},
	{"tracestore.quarantined_chunks", "count"},
	// Every workload: the Go runtime's bill and the tracing overhead.
	{"runtime.peak_heap_mb.attack-stream", "MB"},
	{"runtime.alloc_mb_per_pass.attack-stream", "MB"},
	{"runtime.gc_cycles_per_pass.attack-stream", "count"},
	{"runtime.gc_pause_ms_per_pass.attack-stream", "ms"},
	{"trace_overhead.attack-stream", "ratio"},
	{"runtime.peak_heap_mb.campaigns", "MB"},
	{"runtime.alloc_mb_per_pass.campaigns", "MB"},
	{"runtime.gc_cycles_per_pass.campaigns", "count"},
	{"runtime.gc_pause_ms_per_pass.campaigns", "ms"},
	{"trace_overhead.campaigns", "ratio"},
	{"runtime.peak_heap_mb.scad", "MB"},
	{"runtime.alloc_mb_per_pass.scad", "MB"},
	{"runtime.gc_cycles_per_pass.scad", "count"},
	{"runtime.gc_pause_ms_per_pass.scad", "ms"},
	{"trace_overhead.scad", "ratio"},
}

// declared pairs measured values with their declared units. Every
// declared metric must have a finite value and no undeclared one may
// appear, so a run prints exactly the list BENCHMARK.json names.
func declared(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metric{v, d.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("no measurement of %v", missing)
	}
	if len(values) != len(out) {
		return nil, fmt.Errorf("%d measured metrics are not declared", len(values)-len(out))
	}
	return out, nil
}
