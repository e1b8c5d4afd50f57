package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/serve"
)

// clusterTestSpec is a small campaign crossing several workload kinds,
// so byte-identity is checked over heterogeneous payloads, at scales
// that keep one scenario in the tens of milliseconds.
const clusterTestSpec = `{
  "name": "cluster-harness",
  "seed": 17,
  "workloads": [
    {"kind": "table1", "reps": 10},
    {"kind": "fig3", "traces": [48, 64], "rounds": 1, "averages": 1},
    {"kind": "rankevo", "counts": [16, 32], "rounds": 1},
    {"kind": "tvla", "rows": [2], "traces": [64]}
  ]
}`

func loadClusterSpec(t *testing.T) *campaign.Spec {
	t.Helper()
	spec, err := campaign.ParseSpec([]byte(clusterTestSpec))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// baseline runs the campaign single-process — the oracle every
// distributed merge must match byte for byte.
var (
	baselineOnce sync.Once
	baselineJSON []byte
	baselineCSV  string
	baselineErr  error
)

func baselineResults(t *testing.T) ([]byte, string) {
	t.Helper()
	baselineOnce.Do(func() {
		res, err := campaign.Run(loadClusterSpec(t), campaign.RunOptions{})
		if err != nil {
			baselineErr = err
			return
		}
		baselineJSON = res.EncodeJSON()
		baselineCSV = res.CSV()
	})
	if baselineErr != nil {
		t.Fatal(baselineErr)
	}
	return baselineJSON, baselineCSV
}

// faultMode scripts what the fault proxy does to one scenario POST.
type faultMode int

const (
	passThrough faultMode = iota
	reply500              // clean HTTP failure
	reply429              // backpressure with Retry-After
	hangRequest           // stall past the client deadline
	tornBody              // 200 with a truncated JSON body
	dropConn              // connection killed mid-exchange
)

// faultyWorker is one real scad server behind a scriptable fault
// proxy. Faults are consumed one per scenario POST; the dead flag
// simulates SIGKILL — every subsequent request, health probes
// included, has its connection destroyed.
type faultyWorker struct {
	srv *serve.Server
	ts  *httptest.Server

	mu     sync.Mutex
	script []faultMode

	// closing stops hung handlers so server shutdown can drain.
	closing chan struct{}

	dead      atomic.Bool
	served    atomic.Int64 // successfully proxied scenario POSTs
	killAfter int64        // >0: go dead after this many served scenarios
}

func newFaultyWorker(t *testing.T, script ...faultMode) *faultyWorker {
	t.Helper()
	srv, err := serve.New(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fw := &faultyWorker{srv: srv, script: script, closing: make(chan struct{})}
	fw.ts = httptest.NewServer(http.HandlerFunc(fw.proxy))
	t.Cleanup(func() {
		close(fw.closing)
		fw.ts.Close()
		srv.Close()
	})
	return fw
}

func (fw *faultyWorker) nextMode() faultMode {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if len(fw.script) == 0 {
		return passThrough
	}
	m := fw.script[0]
	fw.script = fw.script[1:]
	return m
}

func (fw *faultyWorker) kill(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("test server must support hijacking")
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		return
	}
	conn.Close()
}

func (fw *faultyWorker) proxy(w http.ResponseWriter, r *http.Request) {
	if fw.dead.Load() {
		fw.kill(w)
		return
	}
	inner := fw.srv.Handler()
	if !(r.Method == http.MethodPost && r.URL.Path == "/v1/scenario") {
		inner.ServeHTTP(w, r)
		return
	}
	switch fw.nextMode() {
	case reply500:
		http.Error(w, "injected fault", http.StatusInternalServerError)
		return
	case reply429:
		w.Header().Set("Retry-After", "1")
		http.Error(w, "injected backpressure", http.StatusTooManyRequests)
		return
	case hangRequest:
		// Hold the exchange open until the client abandons it. The body
		// must be drained first: only then does the server's background
		// read notice the client closing the connection and cancel the
		// request context.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-fw.closing:
		}
		return
	case tornBody:
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.Header().Del("Content-Length")
		w.WriteHeader(rec.Code)
		w.Write(body[:len(body)/2])
		return
	case dropConn:
		fw.kill(w)
		return
	}
	inner.ServeHTTP(w, r)
	if n := fw.served.Add(1); fw.killAfter > 0 && n >= fw.killAfter {
		fw.dead.Store(true)
	}
}

func workerURLs(workers []*faultyWorker) []string {
	urls := make([]string, len(workers))
	for i, fw := range workers {
		urls[i] = fw.ts.URL
	}
	return urls
}

// fastRetry keeps injected-fault recovery inside test time.
var fastRetry = RetryPolicy{MaxAttempts: 4, BackoffBase: 5 * time.Millisecond, BackoffMax: 25 * time.Millisecond}

func runCluster(t *testing.T, workers []*faultyWorker, opt Options) (*campaign.Results, Stats, error) {
	t.Helper()
	opt.Workers = workerURLs(workers)
	if opt.Retry == (RetryPolicy{}) {
		opt.Retry = fastRetry
	}
	if opt.RequestTimeout == 0 {
		opt.RequestTimeout = 30 * time.Second
	}
	return Run(context.Background(), loadClusterSpec(t), opt)
}

func assertByteIdentical(t *testing.T, res *campaign.Results) {
	t.Helper()
	wantJSON, wantCSV := baselineResults(t)
	if !bytes.Equal(res.EncodeJSON(), wantJSON) {
		t.Fatal("distributed results.json differs from single-process run")
	}
	if res.CSV() != wantCSV {
		t.Fatal("distributed results.csv differs from single-process run")
	}
}

// TestClusterByteIdenticalAcrossWorkerCounts is the core claim: for
// any worker count the merged artifacts equal the single-process run
// byte for byte.
func TestClusterByteIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		workers := make([]*faultyWorker, n)
		for i := range workers {
			workers[i] = newFaultyWorker(t)
		}
		res, stats, err := runCluster(t, workers, Options{})
		if err != nil {
			t.Fatalf("%d workers: %v", n, err)
		}
		if stats.Executed+stats.CacheHits != stats.Scenarios {
			t.Fatalf("%d workers: %d executed + %d cache hits != %d scenarios",
				n, stats.Executed, stats.CacheHits, stats.Scenarios)
		}
		assertByteIdentical(t, res)
	}
}

// TestClusterByteIdenticalUnderEveryKillSchedule kills each worker in
// turn — either dead on arrival or SIGKILLed after its first completed
// scenario — and requires the survivors to absorb the orphaned shard
// without the artifacts moving a byte.
func TestClusterByteIdenticalUnderEveryKillSchedule(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		for victim := 0; victim < n; victim++ {
			for _, deadOnArrival := range []bool{false, true} {
				workers := make([]*faultyWorker, n)
				for i := range workers {
					workers[i] = newFaultyWorker(t)
				}
				if deadOnArrival {
					workers[victim].dead.Store(true)
				} else {
					workers[victim].killAfter = 1
				}
				// No short request timeout: a killed worker fails instantly
				// with a destroyed connection, and honest computations must
				// be allowed to run long under instrumented builds.
				res, stats, err := runCluster(t, workers, Options{})
				if err != nil {
					t.Fatalf("n=%d victim=%d doa=%v: %v", n, victim, deadOnArrival, err)
				}
				if deadOnArrival && (stats.WorkersLost != 1 || stats.Repartitioned != 0) {
					t.Fatalf("n=%d victim=%d: lost %d workers handing back %d scenarios, want the dead-on-arrival one and none",
						n, victim, stats.WorkersLost, stats.Repartitioned)
				}
				assertByteIdentical(t, res)
			}
		}
	}
}

// TestClusterRidesOutInjectedFaults scripts one of every failure class
// across three workers — 500s, a hang past the deadline, a torn body,
// 429 backpressure, a dropped connection — and requires recovery via
// retries, with the artifacts untouched.
func TestClusterRidesOutInjectedFaults(t *testing.T) {
	workers := []*faultyWorker{
		newFaultyWorker(t, reply500, reply500),
		newFaultyWorker(t, hangRequest),
		newFaultyWorker(t, tornBody, reply429, dropConn),
	}
	// The timeout must outlive an honest computation even under -race
	// slowdown — only the scripted hang is meant to trip it.
	res, stats, err := runCluster(t, workers, Options{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries == 0 {
		t.Fatal("scripted faults must surface as retries")
	}
	if stats.WorkersLost != 0 {
		t.Fatalf("transient faults cost %d workers; recovery must stay local", stats.WorkersLost)
	}
	if stats.PeerFills == 0 {
		t.Fatal("computed results must replicate to peer caches")
	}
	assertByteIdentical(t, res)
}

// TestClusterResumesAfterTotalLoss drives the worst case: the only
// worker dies mid-campaign, the run fails — and a later invocation
// with -resume against a fresh worker finishes from the checkpoint,
// re-executing nothing already on disk, byte-identical throughout.
func TestClusterResumesAfterTotalLoss(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "checkpoint.jsonl")
	fw := newFaultyWorker(t)
	fw.killAfter = 2
	_, stats, err := runCluster(t, []*faultyWorker{fw}, Options{
		CheckpointPath: ckpt,
	})
	if err == nil {
		t.Fatal("losing the only worker must fail the run")
	}
	if !errors.Is(err, campaign.ErrSlotLost) || !strings.Contains(err.Error(), "every slot lost") {
		t.Fatalf("err = %v, want the every-slot-lost diagnosis", err)
	}
	// The dead worker held its third scenario and handed it back.
	if stats.WorkersLost != 1 || stats.Repartitioned != 1 {
		t.Fatalf("lost %d workers handing back %d scenarios, want 1 and 1", stats.WorkersLost, stats.Repartitioned)
	}

	replacement := newFaultyWorker(t)
	res, stats2, err := runCluster(t, []*faultyWorker{replacement}, Options{
		CheckpointPath: ckpt,
		Resume:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.CheckpointHits < 2 {
		t.Fatalf("resume replayed %d checkpointed scenarios, want the %d finished before the crash",
			stats2.CheckpointHits, 2)
	}
	if stats2.Executed+stats2.CacheHits+stats2.CheckpointHits != stats2.Scenarios {
		t.Fatalf("resume accounting: %+v", stats2)
	}
	assertByteIdentical(t, res)
}

// TestClusterChecksWorkersBeforeDispatch: with no reachable worker the
// coordinator fails fast instead of burning the retry budget.
func TestClusterNoReadyWorkersFailsFast(t *testing.T) {
	fw := newFaultyWorker(t)
	fw.dead.Store(true)
	start := time.Now()
	_, _, err := runCluster(t, []*faultyWorker{fw}, Options{RequestTimeout: time.Second})
	if err == nil {
		t.Fatal("a cluster with no live workers must fail")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("failing took %s; dead workers must be rejected at the probe", elapsed)
	}
}
