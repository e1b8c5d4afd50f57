package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// shrunkConfig is a test-sized configuration over this checkout.
func shrunkConfig(t *testing.T) config {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return config{seed: 7, load: 2, shrink: true, root: root, tmp: t.TempDir()}
}

// setUp builds the named workload and runs its set-up.
func setUp(t *testing.T, name string) workload {
	t.Helper()
	w, err := newWorkload(name, shrunkConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestShrunkPassesComplete(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w := setUp(t, name)
			for i, p := range []*passResult{w.pass(nil), w.pass(nil), w.pass(newTracer())} {
				if p.Ops == 0 || p.Failed != 0 || p.Wall <= 0 {
					t.Fatalf("pass %d: ops=%d failed=%d wall=%v errors=%v", i, p.Ops, p.Failed, p.Wall, p.Errors)
				}
			}
		})
	}
}

func TestCampaignCheckerCountsAFlippedByte(t *testing.T) {
	w := setUp(t, "campaigns").(*campaigns)
	want := w.specs[0].want
	bad := append([]byte(nil), want...)
	// Flip one digit inside the scenario payloads.
	for i := len(bad) / 2; i < len(bad); i++ {
		if bad[i] >= '1' && bad[i] <= '8' {
			bad[i]++
			break
		}
	}
	w.specs[0].want = bad
	if p := w.pass(nil); p.Failed != 1 || p.Ops != 1 {
		t.Fatalf("flipped byte: ops=%d failed=%d errors=%v", p.Ops, p.Failed, p.Errors)
	}
}

func TestAttackStreamCheckerCountsAChangedDigest(t *testing.T) {
	w := setUp(t, "attack-stream").(*attackStream)
	w.want = make([]string, len(w.calls))
	w.want[2] = "not-a-digest" // every other call differs too
	if p := w.pass(nil); p.Failed != len(w.calls) {
		t.Fatalf("changed digests: ops=%d failed=%d", p.Ops, p.Failed)
	}
}

func TestHitCheckerRejectsADifferentBody(t *testing.T) {
	miss := []byte(`{"kind":"attack","result":{"seed":1}}`)
	if err := checkHit(200, "hit", miss, miss); err != nil {
		t.Fatalf("identical hit rejected: %v", err)
	}
	other := append([]byte(nil), miss...)
	other[len(other)-3] = '2'
	if checkHit(200, "hit", other, miss) == nil {
		t.Fatal("hit body differing from its miss body accepted")
	}
	if checkHit(200, "miss", miss, miss) == nil {
		t.Fatal("repeat computed again accepted as a hit")
	}
}

func TestShrunkTracedRunMeasuresEveryLayer(t *testing.T) {
	cfg := shrunkConfig(t)
	res, err := tracedRun(cfg, filepath.Join(cfg.tmp, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run: %+v", res)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("traced run printed %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
	if got := res.Metrics["tracestore.quarantined_chunks"].Value; got != 0 {
		t.Fatalf("quarantined chunks %v", got)
	}
	want := float64(200) / float64(200+20+1) // designed mix: hits / (hits + misses + analyze)
	if got := res.Metrics["serve.cache_hit_ratio"].Value; got != want {
		t.Fatalf("cache hit ratio %v, want %v", got, want)
	}
}

// BENCHMARK.json at the repository root declares exactly the metrics
// the runs print.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads", len(b.Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s, want %s", i, w.Name, workloadNames[i])
		}
	}
}
