package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
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

// TestRunShardsErrorDoesNotDeadlock: when work fails, the pool must
// return the first error rather than hang — with one shard and several
// queued indexes, an early-returning worker used to strand the feeder
// on the unbuffered jobs channel forever.
func TestRunShardsErrorDoesNotDeadlock(t *testing.T) {
	done := make(chan error, 1)
	var ran atomic.Int64
	go func() {
		done <- runShards(1, []int{0, 1, 2, 3}, func(i int) error {
			ran.Add(1)
			return fmt.Errorf("boom at %d", i)
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "boom at 0") {
			t.Fatalf("want first error, got %v", err)
		}
		if ran.Load() != 1 {
			t.Errorf("work ran %d times after the failure, want 1", ran.Load())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("runShards deadlocked on a failing run")
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
	a, err := Execute(&scs[0], key, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(&scs[0], key, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if CanonicalDigest(a) != CanonicalDigest(b) {
		t.Fatal("Execute is not deterministic across worker counts and lane widths")
	}
}
