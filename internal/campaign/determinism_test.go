package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cpufeat"
	"repro/internal/engine"
)

// testSpec is a miniature campaign touching every workload kind and one
// ablated scan — scaled for test runtime, not statistical power.
func testSpec() *Spec {
	return &Spec{
		Name: "determinism-test",
		Seed: 7,
		Workloads: []Workload{
			{Kind: KindTable1, Reps: 20},
			{Kind: KindFigure2, Reps: 20},
			{Kind: KindTable2, Traces: []int{300}, Averages: 2, Rows: []int{1}},
			{Kind: KindTable2, Ablations: []string{"no-nop-wb-zero"}, Traces: []int{200}, Averages: 2, Rows: []int{1}},
			{Kind: KindFig3, Traces: []int{200}, Averages: 1, Rounds: 1},
			{Kind: KindFig4, Traces: []int{60}, Averages: 4, Rounds: 1},
			{Kind: KindFullKey, Traces: []int{100}, Averages: 1, Rounds: 1},
			{Kind: KindRankEvo, Counts: []int{60, 120}, Averages: 1, Rounds: 1},
			{Kind: KindMaskCPA, Gadgets: []string{"naive"}, Countermeasures: []string{"mask"}, Orders: []int{1, 2}, Traces: []int{150}, Averages: 2},
			{Kind: KindTVLA, Rows: []int{2}, Traces: []int{120}, Averages: 2},
		},
	}
}

// artifacts renders every canonical output of one run.
func artifacts(t *testing.T, res *Results) (jsonB, csvB, mdB []byte) {
	t.Helper()
	return res.EncodeJSON(), []byte(res.CSV()), []byte(Report(res))
}

func TestRunRejectsNegativeLanes(t *testing.T) {
	if _, err := Run(testSpec(), RunOptions{Lanes: -1}); err == nil {
		t.Fatal("negative lane width accepted")
	}
}

// TestArtifactsIdenticalAcrossWorkersAndShards is the campaign's core
// determinism guarantee: same spec + same seed produce byte-identical
// JSON, CSV and Markdown whether the run is serial in single-lane
// groups or spread over engine workers, scenario shards and wider
// lane-parallel replay batches.
func TestArtifactsIdenticalAcrossWorkersAndShards(t *testing.T) {
	spec := testSpec()
	serial, err := Run(spec, RunOptions{Workers: 1, Shards: 1, Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(spec, RunOptions{Workers: 3, Shards: 4, Lanes: 8})
	if err != nil {
		t.Fatal(err)
	}
	j1, c1, m1 := artifacts(t, serial)
	j2, c2, m2 := artifacts(t, parallel)
	if !bytes.Equal(j1, j2) {
		t.Error("results JSON differs between workers=1/shards=1 and workers=3/shards=4")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("results CSV differs between worker/shard counts")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("Markdown report differs between worker/shard counts")
	}
}

// TestResumeProducesIdenticalArtifacts interrupts a campaign after two
// scenarios (by truncating its checkpoint) and verifies the resumed run
// executes only the remainder yet produces byte-identical artifacts.
func TestResumeProducesIdenticalArtifacts(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "checkpoint.jsonl")

	full, err := Run(spec, RunOptions{Workers: 2, Shards: 2, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}

	// Simulate an interruption: keep the header and the first two
	// completed scenarios.
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != 1+len(full.Scenarios) {
		t.Fatalf("checkpoint has %d lines, want %d", len(lines), 1+len(full.Scenarios))
	}
	keep := 2
	if err := os.WriteFile(ckpt, []byte(strings.Join(lines[:1+keep], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var executed, cached atomic.Int64
	resumed, err := Run(spec, RunOptions{
		Workers: 2, Shards: 2, CheckpointPath: ckpt, Resume: true,
		OnScenario: func(_ *ScenarioResult, fromCheckpoint bool) {
			if fromCheckpoint {
				cached.Add(1)
			} else {
				executed.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := int(cached.Load()), keep; got != want {
		t.Errorf("resume loaded %d scenarios from the checkpoint, want %d", got, want)
	}
	if got, want := int(executed.Load()), len(full.Scenarios)-keep; got != want {
		t.Errorf("resume executed %d scenarios, want %d", got, want)
	}

	j1, c1, m1 := artifacts(t, full)
	j2, c2, m2 := artifacts(t, resumed)
	if !bytes.Equal(j1, j2) {
		t.Error("resumed run's JSON differs from the uninterrupted run")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("resumed run's CSV differs from the uninterrupted run")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("resumed run's Markdown differs from the uninterrupted run")
	}
}

// TestResumeWithTornCheckpointTail: a hard kill can leave a partial,
// newline-less final checkpoint line. Resume must discard the torn
// bytes — not append new records onto them — and still produce
// artifacts identical to an uninterrupted run, with the checkpoint file
// fully parseable afterwards.
func TestResumeWithTornCheckpointTail(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "checkpoint.jsonl")

	full, err := Run(spec, RunOptions{Workers: 2, Shards: 2, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimRight(string(raw), "\n"), "\n")
	// Header + first scenario intact, then half of the second line.
	torn := lines[0] + lines[1] + lines[2][:len(lines[2])/2]
	if err := os.WriteFile(ckpt, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := Run(spec, RunOptions{Workers: 2, Shards: 2, CheckpointPath: ckpt, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	j1, _, _ := artifacts(t, full)
	j2, _, _ := artifacts(t, resumed)
	if !bytes.Equal(j1, j2) {
		t.Error("resume after a torn checkpoint tail differs from the uninterrupted run")
	}
	// Every line of the rewritten checkpoint must parse — the torn bytes
	// must not have merged with an appended record.
	after, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimRight(string(after), "\n"), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("checkpoint line %d unparseable after torn-tail resume: %v", i, err)
		}
	}
}

// TestFingerprintIgnoresResultInvariantKnobs: Workers and Shards are
// documented as result-invariant, so retuning them must not orphan an
// existing checkpoint.
func TestFingerprintIgnoresResultInvariantKnobs(t *testing.T) {
	a := testSpec()
	b := testSpec()
	b.Workers, b.Shards = 8, 4
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint changed with Workers/Shards")
	}
	c := testSpec()
	c.Seed++
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("fingerprint ignored a seed change")
	}
}

// TestResumeRefusesForeignCheckpoint: a checkpoint written under one
// spec must not silently seed a different campaign.
func TestResumeRefusesForeignCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "checkpoint.jsonl")
	small := &Spec{Name: "a", Seed: 1, Workloads: []Workload{{Kind: KindTable1, Reps: 10}}}
	if _, err := Run(small, RunOptions{CheckpointPath: ckpt}); err != nil {
		t.Fatal(err)
	}
	other := &Spec{Name: "a", Seed: 2, Workloads: []Workload{{Kind: KindTable1, Reps: 10}}}
	_, err := Run(other, RunOptions{CheckpointPath: ckpt, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Fatalf("want foreign-checkpoint refusal, got %v", err)
	}
}

// TestRunShardsErrorDoesNotDeadlock: when a runner fails, the driver
// must return the first error rather than hang, and stop handing out
// scenarios — at one slot nothing runs after the failure, at four
// slots each slot runs at most the scenario it already held.
func TestRunShardsErrorDoesNotDeadlock(t *testing.T) {
	spec := testSpec()
	scenarios, err := spec.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	for _, slots := range []int{1, 4} {
		done := make(chan error, 1)
		var ran atomic.Int64
		failing := func(_ context.Context, sc *Scenario) (*ScenarioResult, bool, error) {
			ran.Add(1)
			return nil, false, fmt.Errorf("boom at %s", sc.ID)
		}
		runners := make([]Runner, slots)
		for i := range runners {
			runners[i] = failing
		}
		go func() {
			_, err := Drive(spec, RunOptions{}, runners)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "boom at ") {
				t.Fatalf("%d slots: want the runner's error, got %v", slots, err)
			}
			if slots == 1 && !strings.Contains(err.Error(), "boom at "+scenarios[0].ID) {
				t.Fatalf("one slot: want the first scenario's error, got %v", err)
			}
			if n := ran.Load(); n > int64(slots) {
				t.Errorf("%d slots: runners ran %d times, want at most one per slot", slots, n)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%d slots: the driver deadlocked on a failing run", slots)
		}
	}
}

// TestExecuteDeterministicPerScenario: the same scenario executed twice
// in isolation — at different worker counts and replay lane widths —
// yields identical serialized results (the property the
// checkpoint/resume machinery rests on).
func TestExecuteDeterministicPerScenario(t *testing.T) {
	spec := &Spec{
		Name: "x", Seed: 3,
		Workloads: []Workload{{Kind: KindFig3, Traces: []int{150}, Averages: 1, Rounds: 1}},
	}
	scs, err := spec.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	key, _ := spec.AttackKey()
	a, err := Execute(&scs[0], key, engine.Config{Workers: 1, Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(&scs[0], key, engine.Config{Workers: 2, Lanes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if CanonicalDigest(a) != CanonicalDigest(b) {
		t.Fatal("Execute is not deterministic across worker counts and lane widths")
	}
}

// TestCommittedCampaignsReproduce is the behavioural contract: every
// committed spec under campaigns/ must reproduce its committed results
// byte for byte — at the default scheduling, at the full 64-lane width,
// spread over 3 engine workers × 4 slots × 8 lanes, and, for the
// multi-cipher campaign, filtered to one target. -short runs the smoke
// campaign only. When SIMD kernels run in this process, the "portable"
// subtest re-executes the test binary with cpufeat.ForcePortableEnv
// set, so both legs — the kernels and their portable references — are
// checked in one run.
func TestCommittedCampaignsReproduce(t *testing.T) {
	t.Run("portable", func(t *testing.T) {
		if testing.Short() {
			t.Skip("-short: the portable leg re-runs every committed campaign")
		}
		if !cpufeat.AVX && !cpufeat.BMI2 {
			t.Skip("no SIMD kernel is on: this process already runs the portable leg")
		}
		cmd := exec.Command(os.Args[0], "-test.run=^TestCommittedCampaignsReproduce$", "-test.count=1")
		cmd.Env = append(os.Environ(), cpufeat.ForcePortableEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s=1 leg: %v\n%s", cpufeat.ForcePortableEnv, err, out)
		}
	})
	legs := []struct {
		name, campaign string
		opt            RunOptions
	}{
		{"smoke", "smoke", RunOptions{}},
		{"paper", "paper", RunOptions{}},
		{"multicipher", "multicipher", RunOptions{}},
		{"countermeasures", "countermeasures", RunOptions{}},
		{"paper-lanes64", "paper", RunOptions{Lanes: 64}},
		{"countermeasures-lanes64", "countermeasures", RunOptions{Lanes: 64}},
		{"countermeasures-w3s4l8", "countermeasures", RunOptions{Workers: 3, Shards: 4, Lanes: 8}},
		{"multicipher-w3s4l8", "multicipher", RunOptions{Workers: 3, Shards: 4, Lanes: 8}},
	}
	if testing.Short() {
		legs = legs[:1]
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			spec, want := committedCampaign(t, leg.campaign)
			res, err := Run(spec, leg.opt)
			if err != nil {
				t.Fatal(err)
			}
			got := res.EncodeJSON()
			if bytes.Equal(got, want) {
				return
			}
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Errorf("campaigns/%s.results.json does not reproduce: first difference on line %d", leg.campaign, 1+bytes.Count(got[:i], []byte("\n")))
		})
	}
	// Filtering selects scenarios without re-keying them: every scenario
	// of the present-only run equals its committed one.
	t.Run("multicipher-present", func(t *testing.T) {
		if testing.Short() {
			t.Skip("-short: runs the multi-cipher campaign's present scenarios")
		}
		spec, want := committedCampaign(t, "multicipher")
		if err := spec.FilterTarget("present"); err != nil {
			t.Fatal(err)
		}
		res, err := Run(spec, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		committed, err := DecodeResults(want)
		if err != nil {
			t.Fatal(err)
		}
		byID := map[string]string{}
		for i := range committed.Scenarios {
			byID[committed.Scenarios[i].ID] = CanonicalDigest(&committed.Scenarios[i])
		}
		if len(res.Scenarios) == 0 {
			t.Fatal("the present filter kept no scenario")
		}
		for i := range res.Scenarios {
			sr := &res.Scenarios[i]
			full, ok := byID[sr.ID]
			if !ok {
				t.Fatalf("filtered scenario %s is not in the committed campaign", sr.ID)
			}
			if CanonicalDigest(sr) != full {
				t.Errorf("filtered scenario %s differs from its committed result", sr.ID)
			}
		}
	})
}

// committedCampaign loads campaigns/<name>.json and the committed
// results bytes it must reproduce.
func committedCampaign(t *testing.T, name string) (*Spec, []byte) {
	t.Helper()
	spec, err := LoadSpec(filepath.Join("..", "..", "campaigns", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "campaigns", name+".results.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec, want
}

// TestExperimentsDocMatchesCommittedResults: EXPERIMENTS.md is a
// generated artifact of the committed paper and countermeasure results,
// so regenerating its campaign regions must not change a byte.
func TestExperimentsDocMatchesCommittedResults(t *testing.T) {
	path := filepath.Join("..", "..", "EXPERIMENTS.md")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, name := range []string{"paper", "countermeasures"} {
		res, err := LoadResults(filepath.Join("..", "..", "campaigns", name+".results.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(doc, "<!-- campaign:begin "+name+"/") {
			t.Errorf("EXPERIMENTS.md has no region owned by the %s campaign", name)
		}
		updated, err := UpdateDocSections(doc, res)
		if err != nil {
			t.Fatal(err)
		}
		if updated != doc {
			t.Errorf("EXPERIMENTS.md drifted from campaigns/%s.results.json; run scripts/regen_experiments.sh", name)
		}
	}
}
