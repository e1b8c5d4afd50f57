package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
)

// fakeScenarios builds n placeholder scenarios; the dispatcher only
// schedules, so identity is all they need.
func fakeScenarios(n int) []campaign.Scenario {
	out := make([]campaign.Scenario, n)
	for i := range out {
		out[i] = campaign.Scenario{ID: fmt.Sprintf("s%03d", i), Index: i}
	}
	return out
}

func allIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestPartitionDealsEveryIndexExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{0, 1}, {1, 1}, {7, 1}, {7, 2}, {7, 3}, {7, 5}, {3, 8}, {16, 4},
	} {
		queues := Partition(allIdx(tc.n), tc.k)
		if len(queues) != max(tc.k, 1) {
			t.Fatalf("n=%d k=%d: %d queues", tc.n, tc.k, len(queues))
		}
		seen := map[int]int{}
		for w, q := range queues {
			for pos, idx := range q {
				seen[idx]++
				// Round-robin dealing: queue w holds w, w+k, w+2k, …
				if want := w + pos*tc.k; tc.k >= 1 && idx != want {
					t.Fatalf("n=%d k=%d queue %d pos %d: idx %d, want %d", tc.n, tc.k, w, pos, idx, want)
				}
			}
		}
		for i := 0; i < tc.n; i++ {
			if seen[i] != 1 {
				t.Fatalf("n=%d k=%d: index %d dealt %d times", tc.n, tc.k, i, seen[i])
			}
		}
	}
}

// scriptedRunner executes scenarios instantly, failing per a death
// schedule: worker w dies (ErrWorkerLost) when its attempt counter
// reaches deaths[w]. Attempts and successes are tallied per scenario.
type scriptedRunner struct {
	mu        sync.Mutex
	deaths    map[int]int // worker -> die on this (1-based) attempt
	attempts  map[int]int // worker -> attempts so far
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
		return nil, false, fmt.Errorf("%w: scripted death of worker %d", ErrWorkerLost, worker)
	}
	f.successes[sc.ID]++
	return &campaign.ScenarioResult{ID: sc.ID, Seed: int64(sc.Index)}, false, nil
}

// TestDispatcherPropertyFuzz drives randomized (scenario count, worker
// count, death schedule) triples through the dispatcher and asserts the
// exactly-once contract: as long as one worker survives, every scenario
// completes with exactly one successful execution, none is lost or
// duplicated, and onDone fires once per scenario.
func TestDispatcherPropertyFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(41)
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
		d := newDispatcher(fakeScenarios(n), allIdx(n), workers, r, func(w int, sr *campaign.ScenarioResult, cached bool) error {
			mu.Lock()
			doneCount[sr.ID]++
			mu.Unlock()
			return nil
		})
		if err := d.run(context.Background()); err != nil {
			t.Fatalf("trial %d (n=%d workers=%d deaths=%v): %v", trial, n, workers, deaths, err)
		}
		results, lost, _ := d.snapshot()
		if len(results) != n {
			t.Fatalf("trial %d: %d results, want %d", trial, len(results), n)
		}
		if lost > len(deaths) {
			t.Fatalf("trial %d: lost %d workers, scripted %d", trial, lost, len(deaths))
		}
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("s%03d", i)
			if results[id] == nil {
				t.Fatalf("trial %d: scenario %s lost", trial, id)
			}
			if r.successes[id] != 1 {
				t.Fatalf("trial %d: scenario %s executed successfully %d times, want exactly once", trial, id, r.successes[id])
			}
			if doneCount[id] != 1 {
				t.Fatalf("trial %d: onDone fired %d times for %s", trial, doneCount[id], id)
			}
		}
	}
}

// TestDispatcherMergeIndependentOfCompletionOrder runs the same
// campaign under wildly different schedules — worker counts, death
// sequences, steal patterns — and merges each outcome: every merge must
// be identical, in enumeration order, regardless of who computed what
// when.
func TestDispatcherMergeIndependentOfCompletionOrder(t *testing.T) {
	const n = 23
	scenarios := fakeScenarios(n)
	spec := &campaign.Spec{Name: "order", Seed: 9}
	var wantIDs []string
	for i := range scenarios {
		wantIDs = append(wantIDs, scenarios[i].ID)
	}
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
		r := newScriptedRunner(tc.deaths)
		d := newDispatcher(scenarios, allIdx(n), tc.workers, r, nil)
		if err := d.run(context.Background()); err != nil {
			t.Fatalf("workers=%d deaths=%v: %v", tc.workers, tc.deaths, err)
		}
		byID, _, _ := d.snapshot()
		merged, err := campaign.MergeResults(spec, scenarios, byID)
		if err != nil {
			t.Fatalf("workers=%d: merge: %v", tc.workers, err)
		}
		if len(merged.Scenarios) != n {
			t.Fatalf("workers=%d: merged %d scenarios", tc.workers, len(merged.Scenarios))
		}
		for i := range merged.Scenarios {
			if merged.Scenarios[i].ID != wantIDs[i] {
				t.Fatalf("workers=%d: position %d holds %s, want %s (enumeration order)",
					tc.workers, i, merged.Scenarios[i].ID, wantIDs[i])
			}
		}
	}
}

func TestDispatcherFailsWhenEveryWorkerDies(t *testing.T) {
	r := newScriptedRunner(map[int]int{0: 2, 1: 3, 2: 1})
	d := newDispatcher(fakeScenarios(12), allIdx(12), 3, r, nil)
	err := d.run(context.Background())
	if err == nil {
		t.Fatal("losing every worker with work outstanding must fail the run")
	}
	if !strings.Contains(err.Error(), "every worker lost") {
		t.Fatalf("err = %v, want the every-worker-lost diagnosis", err)
	}
	// The completed prefix is still intact for checkpoint resume.
	results, lost, _ := d.snapshot()
	if lost != 3 {
		t.Fatalf("lost %d workers, want 3", lost)
	}
	for id, n := range r.successes {
		if n != 1 {
			t.Fatalf("scenario %s executed %d times before the collapse", id, n)
		}
		if results[id] == nil {
			t.Fatalf("completed scenario %s missing from the snapshot", id)
		}
	}
}

func TestDispatcherRepartitionsDeadWorkersQueue(t *testing.T) {
	// Worker 0 dies on its very first attempt while worker 1 waits for
	// the funeral: worker 0's entire shard — the in-flight scenario plus
	// its four queued ones — must move to worker 1 and still complete.
	// Worker 1 waits until the dispatcher has recorded the loss, not
	// merely until worker 0's runner returned: in between, worker 1
	// could steal from worker 0's still-live queue.
	var d *dispatcher
	r := runnerFunc(func(ctx context.Context, w int, sc *campaign.Scenario) (*campaign.ScenarioResult, bool, error) {
		if w == 0 {
			return nil, false, fmt.Errorf("%w: scripted death of worker 0", ErrWorkerLost)
		}
		for {
			if _, lost, _ := d.snapshot(); lost == 1 {
				break
			}
			runtime.Gosched()
		}
		return &campaign.ScenarioResult{ID: sc.ID}, false, nil
	})
	d = newDispatcher(fakeScenarios(10), allIdx(10), 2, r, nil)
	if err := d.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	results, lost, repartitioned := d.snapshot()
	if lost != 1 {
		t.Fatalf("lost %d, want 1", lost)
	}
	if repartitioned != 5 {
		t.Fatalf("repartitioned %d scenarios, want worker 0's full shard of 5", repartitioned)
	}
	if len(results) != 10 {
		t.Fatalf("%d results, want 10", len(results))
	}
}

func TestDispatcherAbortsWhenOnDoneFails(t *testing.T) {
	boom := errors.New("checkpoint disk died")
	r := newScriptedRunner(nil)
	d := newDispatcher(fakeScenarios(8), allIdx(8), 2, r, func(int, *campaign.ScenarioResult, bool) error {
		return boom
	})
	if err := d.run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the onDone failure", err)
	}
}

func TestDispatcherHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	block := make(chan struct{})
	r := runnerFunc(func(ctx context.Context, w int, sc *campaign.Scenario) (*campaign.ScenarioResult, bool, error) {
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
	})
	d := newDispatcher(fakeScenarios(4), allIdx(4), 2, r, nil)
	errc := make(chan error, 1)
	go func() { errc <- d.run(ctx) }()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(block)
}

type runnerFunc func(context.Context, int, *campaign.Scenario) (*campaign.ScenarioResult, bool, error)

func (f runnerFunc) run(ctx context.Context, w int, sc *campaign.Scenario) (*campaign.ScenarioResult, bool, error) {
	return f(ctx, w, sc)
}
