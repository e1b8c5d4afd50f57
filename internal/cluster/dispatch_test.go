package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
)

// The coordinator dispatches through campaign.Drive with one slot per
// worker. These tests drive it with scripted workers in place of the
// HTTP client, so the scheduling contract is checked without sockets.

// dispatchSpec enumerates n fig3 scenarios (traces 8, 9, …). The
// scripted workers never execute them, so identity is all they need.
func dispatchSpec(n int) *campaign.Spec {
	traces := make([]int, n)
	for i := range traces {
		traces[i] = 8 + i
	}
	return &campaign.Spec{Name: "dispatch", Seed: 9, Workloads: []campaign.Workload{{Kind: campaign.KindFig3, Traces: traces}}}
}

// workerRunner executes one scenario on worker w.
type workerRunner func(ctx context.Context, w int, sc *campaign.Scenario) (*campaign.ScenarioResult, bool, error)

// dispatch runs spec on one slot per worker through the driver.
func dispatch(ctx context.Context, spec *campaign.Spec, workers int, r workerRunner, opt campaign.RunOptions) (*campaign.Results, error) {
	slots := make([]campaign.Runner, workers)
	for w := range slots {
		slots[w] = func(ctx context.Context, sc *campaign.Scenario) (*campaign.ScenarioResult, bool, error) {
			return r(ctx, w, sc)
		}
	}
	opt.Ctx = ctx
	return campaign.Drive(spec, opt, slots)
}

// scriptedRunner executes scenarios instantly, failing per a death
// schedule: worker w surrenders its slot when its attempt counter
// reaches deaths[w]. Attempts, losses and successes are tallied.
type scriptedRunner struct {
	mu        sync.Mutex
	deaths    map[int]int // worker -> die on this (1-based) attempt
	attempts  map[int]int // worker -> attempts so far
	lost      int
	successes map[string]int
}

func newScriptedRunner(deaths map[int]int) *scriptedRunner {
	return &scriptedRunner{
		deaths:    deaths,
		attempts:  map[int]int{},
		successes: map[string]int{},
	}
}

func (f *scriptedRunner) run(ctx context.Context, worker int, sc *campaign.Scenario) (*campaign.ScenarioResult, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempts[worker]++
	if die, ok := f.deaths[worker]; ok && f.attempts[worker] >= die {
		f.lost++
		return nil, false, fmt.Errorf("%w: scripted death of worker %d", campaign.ErrSlotLost, worker)
	}
	f.successes[sc.ID]++
	return &campaign.ScenarioResult{ID: sc.ID, Kind: sc.Kind, Seed: sc.Seed}, false, nil
}

// TestDispatcherPropertyFuzz drives randomized (scenario count, worker
// count, death schedule) triples through the driver and asserts the
// exactly-once contract: as long as one worker survives, every scenario
// completes with exactly one successful execution, none is lost or
// duplicated, and OnScenario fires once per scenario.
func TestDispatcherPropertyFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		workers := 1 + rng.Intn(6)
		deaths := map[int]int{}
		// Kill a random strict subset of workers, each after a random
		// number of attempts, so at least one survivor drains the queue.
		for w := 0; w < workers; w++ {
			if len(deaths) < workers-1 && rng.Intn(2) == 0 {
				deaths[w] = 1 + rng.Intn(5)
			}
		}
		r := newScriptedRunner(deaths)
		var mu sync.Mutex
		doneCount := map[string]int{}
		res, err := dispatch(context.Background(), dispatchSpec(n), workers, r.run, campaign.RunOptions{
			OnScenario: func(sr *campaign.ScenarioResult, cached bool) {
				mu.Lock()
				doneCount[sr.ID]++
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatalf("trial %d (n=%d workers=%d deaths=%v): %v", trial, n, workers, deaths, err)
		}
		if len(res.Scenarios) != n {
			t.Fatalf("trial %d: %d results, want %d", trial, len(res.Scenarios), n)
		}
		if r.lost > len(deaths) {
			t.Fatalf("trial %d: lost %d workers, scripted %d", trial, r.lost, len(deaths))
		}
		for i := range res.Scenarios {
			id := res.Scenarios[i].ID
			if r.successes[id] != 1 {
				t.Fatalf("trial %d: scenario %s executed successfully %d times, want exactly once", trial, id, r.successes[id])
			}
			if doneCount[id] != 1 {
				t.Fatalf("trial %d: OnScenario fired %d times for %s", trial, doneCount[id], id)
			}
		}
	}
}

// TestDispatcherMergeIndependentOfCompletionOrder runs the same
// campaign under wildly different schedules — worker counts and death
// sequences — and requires every merge to be byte-identical and in
// enumeration order, regardless of who computed what when.
func TestDispatcherMergeIndependentOfCompletionOrder(t *testing.T) {
	const n = 23
	spec := dispatchSpec(n)
	scenarios, err := spec.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for _, tc := range []struct {
		workers int
		deaths  map[int]int
	}{
		{1, nil},
		{2, nil},
		{3, map[int]int{0: 2}},
		{5, map[int]int{1: 1, 3: 4}},
		{5, map[int]int{0: 1, 1: 1, 2: 1, 3: 1}},
	} {
		merged, err := dispatch(context.Background(), spec, tc.workers, newScriptedRunner(tc.deaths).run, campaign.RunOptions{})
		if err != nil {
			t.Fatalf("workers=%d deaths=%v: %v", tc.workers, tc.deaths, err)
		}
		for i := range merged.Scenarios {
			if merged.Scenarios[i].ID != scenarios[i].ID {
				t.Fatalf("workers=%d: position %d holds %s, want %s (enumeration order)",
					tc.workers, i, merged.Scenarios[i].ID, scenarios[i].ID)
			}
		}
		if first == nil {
			first = merged.EncodeJSON()
		} else if string(merged.EncodeJSON()) != string(first) {
			t.Fatalf("workers=%d deaths=%v: merged bytes differ from the one-worker run", tc.workers, tc.deaths)
		}
	}
}

// TestDispatcherFailsWhenEveryWorkerDies: losing the last worker with
// work outstanding fails the run, and what completed before the
// collapse is checkpointed — a resumed run executes only the rest.
func TestDispatcherFailsWhenEveryWorkerDies(t *testing.T) {
	const n = 12
	ckpt := filepath.Join(t.TempDir(), "checkpoint.jsonl")
	r := newScriptedRunner(map[int]int{0: 2, 1: 3, 2: 1})
	_, err := dispatch(context.Background(), dispatchSpec(n), 3, r.run, campaign.RunOptions{CheckpointPath: ckpt})
	if err == nil {
		t.Fatal("losing every worker with work outstanding must fail the run")
	}
	if !errors.Is(err, campaign.ErrSlotLost) || !strings.Contains(err.Error(), "every slot lost") {
		t.Fatalf("err = %v, want the every-slot-lost diagnosis", err)
	}
	if r.lost != 3 {
		t.Fatalf("lost %d workers, want 3", r.lost)
	}
	for id, k := range r.successes {
		if k != 1 {
			t.Fatalf("scenario %s executed %d times before the collapse", id, k)
		}
	}

	resumed := newScriptedRunner(nil)
	checkpointed := 0
	res, err := dispatch(context.Background(), dispatchSpec(n), 1, resumed.run, campaign.RunOptions{
		CheckpointPath: ckpt,
		Resume:         true,
		OnScenario: func(sr *campaign.ScenarioResult, cached bool) {
			if cached {
				checkpointed++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if checkpointed != len(r.successes) {
		t.Fatalf("resume settled %d scenarios from the checkpoint, want the %d completed before the collapse", checkpointed, len(r.successes))
	}
	for id := range r.successes {
		if resumed.successes[id] != 0 {
			t.Fatalf("resume re-executed checkpointed scenario %s", id)
		}
	}
	if len(res.Scenarios) != n {
		t.Fatalf("%d results, want %d", len(res.Scenarios), n)
	}
}

// TestDispatcherHandsBackLostScenario: a worker that dies on its first
// attempt hands its in-flight scenario back to the shared queue, and
// the survivor completes it exactly once. The survivor holds its first
// scenario until worker 0 has taken one, so worker 0 always gets one.
func TestDispatcherHandsBackLostScenario(t *testing.T) {
	var mu sync.Mutex
	var orphan string
	successes := map[string]int{}
	taken := make(chan struct{})
	r := func(ctx context.Context, w int, sc *campaign.Scenario) (*campaign.ScenarioResult, bool, error) {
		if w == 0 {
			mu.Lock()
			orphan = sc.ID
			mu.Unlock()
			close(taken)
			return nil, false, fmt.Errorf("%w: scripted death of worker 0", campaign.ErrSlotLost)
		}
		<-taken
		mu.Lock()
		defer mu.Unlock()
		successes[sc.ID]++
		return &campaign.ScenarioResult{ID: sc.ID, Kind: sc.Kind, Seed: sc.Seed}, false, nil
	}
	res, err := dispatch(context.Background(), dispatchSpec(10), 2, r, campaign.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 10 || len(successes) != 10 {
		t.Fatalf("%d results from %d executed scenarios, want 10", len(res.Scenarios), len(successes))
	}
	for id, k := range successes {
		if k != 1 {
			t.Fatalf("scenario %s executed %d times, want once", id, k)
		}
	}
	if successes[orphan] != 1 {
		t.Fatalf("handed-back scenario %q completed %d times, want once", orphan, successes[orphan])
	}
}

// TestDispatcherAbortsWhenOnDoneFails: a completion the checkpoint
// cannot record (a result JSON cannot encode) fails the run.
func TestDispatcherAbortsWhenOnDoneFails(t *testing.T) {
	unencodable := func(ctx context.Context, w int, sc *campaign.Scenario) (*campaign.ScenarioResult, bool, error) {
		return &campaign.ScenarioResult{ID: sc.ID, Kind: sc.Kind, Fig3: &campaign.AttackResult{BestCorr: math.NaN()}}, false, nil
	}
	ckpt := filepath.Join(t.TempDir(), "checkpoint.jsonl")
	_, err := dispatch(context.Background(), dispatchSpec(8), 2, unencodable, campaign.RunOptions{CheckpointPath: ckpt})
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("err = %v, want the checkpoint failure", err)
	}
}

func TestDispatcherHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	block := make(chan struct{})
	r := func(ctx context.Context, w int, sc *campaign.Scenario) (*campaign.ScenarioResult, bool, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-block:
			return &campaign.ScenarioResult{ID: sc.ID}, false, nil
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	errc := make(chan error, 1)
	go func() {
		_, err := dispatch(ctx, dispatchSpec(4), 2, r, campaign.RunOptions{})
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(block)
}
