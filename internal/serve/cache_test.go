package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", "k", []byte("A"))
	c.Put("b", "k", []byte("B"))
	c.Put("c", "k", []byte("C")) // evicts a
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
	if _, _, ok := c.Get("a"); ok {
		t.Fatal("a must have been evicted")
	}
	if _, body, ok := c.Get("b"); !ok || string(body) != "B" {
		t.Fatal("b must survive")
	}
	// b is now most recent; inserting d evicts c, not b.
	c.Put("d", "k", []byte("D"))
	if _, _, ok := c.Get("c"); ok {
		t.Fatal("c must have been evicted after b's refresh")
	}
	if _, _, ok := c.Get("b"); !ok {
		t.Fatal("recently used b must survive")
	}
	st := c.Stats()
	if st.Evictions != 2 {
		t.Fatalf("evictions %d, want 2", st.Evictions)
	}
}

func TestCacheSpillPersistsAndServesEvicted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.jsonl")
	c, err := NewCache(1, path)
	if err != nil {
		t.Fatal(err)
	}
	bodyA := []byte(`{"v":1}` + "\n")
	bodyB := []byte(`{"v":2}` + "\n")
	c.Put("a", "attack", bodyA)
	c.Put("b", "attack", bodyB) // evicts a from memory; disk still has it
	if _, got, ok := c.Get("a"); !ok || string(got) != string(bodyA) {
		t.Fatalf("evicted entry must reload from spill byte-identically, got %q ok=%v", got, ok)
	}
	if st := c.Stats(); st.SpillHits != 1 || st.Spilled != 2 {
		t.Fatalf("stats %+v, want 1 spill hit over 2 spilled", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// A new process over the same spill serves both results.
	c2, err := NewCache(4, path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, got, ok := c2.Get("b"); !ok || string(got) != string(bodyB) {
		t.Fatal("restarted cache must serve spilled results byte-identically")
	}
}

// TestCacheSpillReloadAfterConcurrentWritersAndTornTail crashes a
// busy cache mid-append: many goroutines race their Puts into the
// spill, the file then loses half of its final line (a crash between
// write and close), and a garbage line is wedged in for good measure.
// Reopening must serve every completed record byte-identically,
// truncate the torn tail so later appends never merge into it, and
// keep accepting new records that survive yet another restart.
func TestCacheSpillReloadAfterConcurrentWritersAndTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.jsonl")
	// A one-entry LRU forces every Get on the reopened cache through the
	// spill file rather than memory.
	c, err := NewCache(1, path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	body := func(w, i int) string {
		return fmt.Sprintf("{\n  \"writer\": %d,\n  \"seq\": %d\n}\n", w, i)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Put(fmt.Sprintf("fp-%d-%d", w, i), "attack", []byte(body(w, i)))
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Spilled != writers*perWriter || st.SpillErrors != 0 {
		t.Fatalf("stats %+v, want %d spilled cleanly", st, writers*perWriter)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: a half-written final record and, before it, a
	// complete line of non-record garbage.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not json at all\n{\"fingerprint\":\"fp-torn\",\"kind\":\"att"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sizeBefore, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	c2, err := NewCache(1, path)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			fp := fmt.Sprintf("fp-%d-%d", w, i)
			kind, got, ok := c2.Get(fp)
			if !ok || kind != "attack" || string(got) != body(w, i) {
				t.Fatalf("reload of %s: ok=%v kind=%q body=%q", fp, ok, kind, got)
			}
		}
	}
	if _, _, ok := c2.Get("fp-torn"); ok {
		t.Fatal("the torn trailing record must not survive reload")
	}
	sizeAfter, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if sizeAfter.Size() >= sizeBefore.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", sizeBefore.Size(), sizeAfter.Size())
	}

	// New appends land after the truncation point and survive another
	// restart next to every original record.
	c2.Put("fp-after", "attack", []byte("{\"v\":3}\n"))
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	c3, err := NewCache(4, path)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, got, ok := c3.Get("fp-after"); !ok || string(got) != "{\"v\":3}\n" {
		t.Fatalf("post-truncation append lost: ok=%v body=%q", ok, got)
	}
	if _, got, ok := c3.Get(fmt.Sprintf("fp-%d-%d", writers-1, perWriter-1)); !ok || string(got) != body(writers-1, perWriter-1) {
		t.Fatalf("original record lost after second restart: ok=%v body=%q", ok, got)
	}
}

func TestLimiterBackpressure(t *testing.T) {
	l := newLimiter(1, 1)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// One waiter fits in the queue...
	queued := make(chan error, 1)
	go func() { queued <- l.acquire(context.Background()) }()
	// ...wait until it is actually parked.
	for {
		l.mu.Lock()
		w := l.waiting
		l.mu.Unlock()
		if w == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !l.saturated() {
		t.Fatal("limiter must report saturation")
	}
	// ...the next is refused outright.
	if err := l.acquire(context.Background()); !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	l.release()
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	l.release()
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	l.release()
}

func TestLimiterAcquireHonorsContext(t *testing.T) {
	l := newLimiter(1, 4)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	l.release()
}

func TestFlightCollapsesConcurrentIdenticalRequests(t *testing.T) {
	g := newFlightGroup()
	var computes atomic.Int64
	release := make(chan struct{})
	compute := func(ctx context.Context) ([]byte, error) {
		computes.Add(1)
		<-release
		return []byte("body"), nil
	}
	const n = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	shareds := make([]bool, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], shareds[i], errs[i] = g.do(context.Background(), context.Background(), "fp", compute)
		}(i)
	}
	// Hold the computation until every caller has joined the flight, so
	// none of them can miss it and start a second one.
	for {
		g.mu.Lock()
		f := g.flights["fp"]
		w := 0
		if f != nil {
			w = f.waiters
		}
		g.mu.Unlock()
		if w == n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if c := computes.Load(); c != 1 {
		t.Fatalf("%d computations for %d concurrent identical requests, want 1", c, n)
	}
	leaders := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if string(bodies[i]) != "body" {
			t.Fatalf("caller %d got %q", i, bodies[i])
		}
		if !shareds[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want exactly 1", leaders)
	}
	if g.inFlight() != 0 {
		t.Fatal("flight table must drain")
	}
}

func TestFlightDistinctKeysComputeIndependently(t *testing.T) {
	g := newFlightGroup()
	var computes atomic.Int64
	for _, key := range []string{"a", "b"} {
		body, _, err := g.do(context.Background(), context.Background(), key, func(ctx context.Context) ([]byte, error) {
			computes.Add(1)
			return []byte(key), nil
		})
		if err != nil || string(body) != key {
			t.Fatalf("key %s: body %q err %v", key, body, err)
		}
	}
	if computes.Load() != 2 {
		t.Fatal("distinct fingerprints must not collapse")
	}
}

func TestFlightCancellationMidJobLeavesCacheClean(t *testing.T) {
	cache, err := NewCache(8, "")
	if err != nil {
		t.Fatal(err)
	}
	g := newFlightGroup()
	reqCtx, cancelReq := context.WithCancel(context.Background())
	computing := make(chan struct{})
	finished := make(chan error, 1)
	go func() {
		_, _, err := g.do(reqCtx, context.Background(), "fp", func(ctx context.Context) ([]byte, error) {
			close(computing)
			// Simulate an engine run: it observes cancellation between
			// chunks and aborts. The cache fill sits after this point, so
			// it never happens.
			<-ctx.Done()
			finished <- ctx.Err()
			return nil, ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("caller err = %v, want context.Canceled", err)
		}
	}()
	<-computing
	g.mu.Lock()
	flight := g.flights["fp"]
	g.mu.Unlock()
	cancelReq() // the only waiter walks away -> flight context cancels
	select {
	case err := <-finished:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("compute saw %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned computation was never canceled")
	}
	if cache.Len() != 0 {
		t.Fatal("canceled computation must leave the cache clean")
	}
	if st := cache.Stats(); st.Hits != 0 {
		t.Fatalf("stats %+v, want untouched cache", st)
	}

	// The same fingerprint recomputes cleanly afterwards, once the
	// canceled flight has left the group: compute reports finished just
	// before its flight is removed, and done closes just after.
	<-flight.done
	body, shared, err := g.do(context.Background(), context.Background(), "fp", func(ctx context.Context) ([]byte, error) {
		b := []byte("fresh")
		cache.Put("fp", "k", b)
		return b, nil
	})
	if err != nil || shared || string(body) != "fresh" {
		t.Fatalf("recompute after cancellation: body %q shared %v err %v", body, shared, err)
	}
	if cache.Len() != 1 {
		t.Fatal("successful recompute must fill the cache")
	}
}

func TestFlightSurvivesOneDepartingWaiter(t *testing.T) {
	g := newFlightGroup()
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	var computeErr error
	ctx1, cancel1 := context.WithCancel(context.Background())
	go func() {
		defer close(leaderDone)
		_, _, computeErr = g.do(ctx1, context.Background(), "fp", func(ctx context.Context) ([]byte, error) {
			<-release
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return []byte("ok"), nil
		})
	}()
	// Wait for the flight to exist, then join it with a second caller.
	for g.inFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	type res struct {
		body []byte
		err  error
	}
	second := make(chan res, 1)
	go func() {
		body, _, err := g.do(context.Background(), context.Background(), "fp", func(ctx context.Context) ([]byte, error) {
			return nil, fmt.Errorf("second caller must join, not compute")
		})
		second <- res{body, err}
	}()
	for {
		g.mu.Lock()
		f := g.flights["fp"]
		w := 0
		if f != nil {
			w = f.waiters
		}
		g.mu.Unlock()
		if w == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel1() // the leader leaves; the flight must keep running
	<-leaderDone
	if !errors.Is(computeErr, context.Canceled) {
		t.Fatalf("departed leader err = %v", computeErr)
	}
	close(release)
	r := <-second
	if r.err != nil || string(r.body) != "ok" {
		t.Fatalf("surviving waiter got body %q err %v", r.body, r.err)
	}
}

// TestCacheSpillCorruptRecordSkipped rots one complete record in place
// (the torn-tail rule cannot catch it — the line still parses) and
// requires the reopened cache to skip and count it rather than serve a
// silently altered body.
func TestCacheSpillCorruptRecordSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.jsonl")
	c, err := NewCache(4, path)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("aa", "attack", []byte(`{"v":1}`+"\n"))
	c.Put("bb", "attack", []byte(`{"v":2}`+"\n"))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a digit inside record aa's body, keeping the line valid JSON.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rotted := []byte(strings.Replace(string(raw), `{\"v\":1}`, `{\"v\":7}`, 1))
	if string(rotted) == string(raw) {
		t.Fatal("test setup: body substring not found in spill")
	}
	if err := os.WriteFile(path, rotted, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCache(4, path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, _, ok := c2.Get("aa"); ok {
		t.Fatal("rotted record served instead of skipped")
	}
	if _, body, ok := c2.Get("bb"); !ok || string(body) != `{"v":2}`+"\n" {
		t.Fatal("intact neighbor must still load byte-identically")
	}
	if st := c2.Stats(); st.SpillCorrupt != 1 {
		t.Fatalf("stats %+v, want exactly the rotted record counted", st)
	}
}

// TestCacheSpillLegacyRecordsLoad writes a spill in the pre-CRC format
// and requires it to still load: robustness hardening must not orphan
// existing result logs.
func TestCacheSpillLegacyRecordsLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.jsonl")
	legacy := `{"fingerprint":"old","kind":"attack","body":"{\"v\":9}\n"}` + "\n"
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache(4, path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	kind, body, ok := c.Get("old")
	if !ok || kind != "attack" || string(body) != "{\"v\":9}\n" {
		t.Fatalf("legacy record must load: ok=%v kind=%q body=%q", ok, kind, body)
	}
	if st := c.Stats(); st.SpillCorrupt != 0 {
		t.Fatalf("legacy record miscounted as corrupt: %+v", st)
	}
}
