package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/serve"
)

// counters aggregates scheduling telemetry across the worker clients.
// Everything here is observability; none of it reaches the artifacts.
type counters struct {
	executed, cacheHits, retries atomic.Int64
	peerFills, peerFillErrors    atomic.Int64
	lost                         atomic.Int64
}

// resultEnvelope mirrors the serve response body shape for the
// scenario endpoint.
type resultEnvelope struct {
	Kind        string                  `json:"kind"`
	Fingerprint string                  `json:"fingerprint"`
	Result      campaign.ScenarioResult `json:"result"`
}

// httpError is a non-2xx response from a worker.
type httpError struct {
	status     int
	retryAfter time.Duration
	body       string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("worker returned %d: %.200s", e.status, e.body)
}

// workerClient talks to one scad worker.
type workerClient struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	policy  RetryPolicy
	jitter  *jitterSource
	c       *counters
}

func newWorkerClient(base string, timeout time.Duration, policy RetryPolicy, jitter *jitterSource, c *counters) *workerClient {
	return &workerClient{
		base:    base,
		hc:      &http.Client{},
		timeout: timeout,
		policy:  policy.withDefaults(),
		jitter:  jitter,
		c:       c,
	}
}

// healthy probes /healthz readiness with a short deadline — the
// is-this-worker-alive oracle consulted before declaring it lost and at
// startup.
func (w *workerClient) healthy(ctx context.Context) bool {
	probe := 2 * time.Second
	if w.timeout > 0 && w.timeout < probe {
		probe = w.timeout
	}
	hctx, cancel := context.WithTimeout(ctx, probe)
	defer cancel()
	req, err := http.NewRequestWithContext(hctx, http.MethodGet, w.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var h serve.Health
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h); err != nil {
		return false
	}
	return resp.StatusCode == http.StatusOK && h.Ready
}

// readThrough asks the worker's content-addressed cache for fp before
// dispatching any computation. Any failure is simply a miss — the
// execute path will classify real trouble.
func (w *workerClient) readThrough(ctx context.Context, fp string) (*campaign.ScenarioResult, bool) {
	gctx, cancel := context.WithTimeout(ctx, w.probeBudget())
	defer cancel()
	req, err := http.NewRequestWithContext(gctx, http.MethodGet, w.base+"/v1/results/"+fp, nil)
	if err != nil {
		return nil, false
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	sr, err := decodeEnvelope(resp.Body, fp)
	if err != nil {
		return nil, false
	}
	return sr, true
}

func (w *workerClient) probeBudget() time.Duration {
	if w.timeout > 0 && w.timeout < 10*time.Second {
		return w.timeout
	}
	return 10 * time.Second
}

// execute POSTs one scenario request and decodes the envelope. hit
// reports the worker served it from cache; raw is the exact response
// body (the bytes peer fills replicate).
func (w *workerClient) execute(ctx context.Context, fp string, body []byte) (sr *campaign.ScenarioResult, raw []byte, hit bool, err error) {
	ectx := ctx
	if w.timeout > 0 {
		var cancel context.CancelFunc
		ectx, cancel = context.WithTimeout(ctx, w.timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ectx, http.MethodPost, w.base+"/v1/scenario", bytes.NewReader(body))
	if err != nil {
		return nil, nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return nil, nil, false, err
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		// A torn body: the worker committed to a response and the
		// connection died under it. Retryable — by then the result is in
		// its cache.
		return nil, nil, false, fmt.Errorf("cluster: reading response from %s: %w", w.base, err)
	}
	if resp.StatusCode != http.StatusOK {
		he := &httpError{status: resp.StatusCode, body: string(raw)}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
				he.retryAfter = time.Duration(secs) * time.Second
			}
		}
		return nil, nil, false, he
	}
	sr, err = decodeEnvelope(bytes.NewReader(raw), fp)
	if err != nil {
		return nil, nil, false, err
	}
	return sr, raw, resp.Header.Get("X-Scad-Cache") == "hit", nil
}

// fill replicates a finished body to this worker's cache (best effort).
func (w *workerClient) fill(ctx context.Context, fp string, raw []byte) error {
	fctx, cancel := context.WithTimeout(ctx, w.probeBudget())
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodPut, w.base+"/v1/results/"+fp, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("cluster: peer fill on %s: status %d", w.base, resp.StatusCode)
	}
	return nil
}

// decodeEnvelope parses a result envelope and verifies it carries the
// fingerprint the caller asked for — a truncated or mismatched body is
// an error, never a silently wrong result.
func decodeEnvelope(r io.Reader, fp string) (*campaign.ScenarioResult, error) {
	var env resultEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("cluster: decoding result envelope: %w", err)
	}
	if env.Fingerprint != fp {
		return nil, fmt.Errorf("cluster: envelope fingerprint %.12s… does not match requested %.12s…", env.Fingerprint, fp)
	}
	if env.Kind != "scenario" {
		return nil, fmt.Errorf("cluster: envelope kind %q, want scenario", env.Kind)
	}
	return &env.Result, nil
}

// clusterRunner drives one scenario through a worker with bounded,
// jittered retries, classifying each failure as retry-here,
// worker-lost (the scenario goes back on the queue) or fatal.
type clusterRunner struct {
	clients  []*workerClient
	campaign string
	seed     int64
	key      string
	peerFill bool
}

func (cr *clusterRunner) run(ctx context.Context, worker int, sc *campaign.Scenario) (*campaign.ScenarioResult, bool, error) {
	cl := cr.clients[worker]
	req := sc.WireRequest(cr.campaign, cr.seed, cr.key)
	fp := req.Fingerprint()
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, false, err
	}
	suspects := 0
	var lastErr error
	for attempt := 1; attempt <= cl.policy.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		if attempt > 1 {
			cl.c.retries.Add(1)
		}
		// Read-through before dispatch: a scenario this worker already
		// holds — from a previous attempt whose response tore, from a
		// peer fill, or from its spill file surviving a restart — is a
		// lookup, not a computation.
		if sr, ok := cl.readThrough(ctx, fp); ok {
			cl.c.cacheHits.Add(1)
			return sr, true, nil
		}
		sr, raw, hit, err := cl.execute(ctx, fp, body)
		if err == nil {
			if hit {
				cl.c.cacheHits.Add(1)
			} else {
				cl.c.executed.Add(1)
			}
			if cr.peerFill && !hit {
				cr.fillPeers(ctx, worker, fp, raw)
			}
			return sr, hit, nil
		}
		lastErr = err
		var he *httpError
		switch {
		case ctx.Err() != nil:
			return nil, false, ctx.Err()
		case errors.As(err, &he):
			suspects = 0
			if he.status >= 400 && he.status < 500 && he.status != http.StatusTooManyRequests {
				// The worker understood the request and rejected it;
				// every worker would. Fatal, not retryable.
				return nil, false, fmt.Errorf("cluster: scenario %s rejected by %s: %w", sc.ID, cl.base, err)
			}
			wait := cl.jitter.backoff(cl.policy, attempt)
			if he.retryAfter > 0 {
				wait = min(he.retryAfter, cl.policy.BackoffMax)
			}
			if !sleep(ctx, wait) {
				return nil, false, ctx.Err()
			}
		default:
			// Transport-level trouble: timeout, refused connection, reset
			// mid-body. One strike is forgiven if the worker still answers
			// its health probe; two in a row — or a failed probe — and the
			// worker surrenders its slot.
			suspects++
			if suspects >= 2 || !cl.healthy(ctx) {
				return nil, false, cl.lost(err)
			}
			if !sleep(ctx, cl.jitter.backoff(cl.policy, attempt)) {
				return nil, false, ctx.Err()
			}
		}
	}
	// The retry budget is spent. Surrender the worker: a healthy sibling
	// may still complete the scenario, and if the failure follows the
	// scenario everywhere, the run fails when the last worker is lost —
	// bounded either way.
	return nil, false, cl.lost(fmt.Errorf("scenario %s still failing after %d attempts: %v",
		sc.ID, cl.policy.MaxAttempts, lastErr))
}

// lost surrenders this worker's slot: the returned error wraps
// campaign.ErrSlotLost, so the driver puts the scenario back on the
// queue for the survivors.
func (w *workerClient) lost(cause error) error {
	w.c.lost.Add(1)
	return fmt.Errorf("%w: worker %s: %v", campaign.ErrSlotLost, w.base, cause)
}

// fillPeers replicates a freshly computed body to every other worker's
// cache, synchronously and best-effort: a dead or slow peer only costs
// its bounded probe budget, and failures are counted, never fatal. The
// payoff is that a scenario a lost worker hands back (or a duplicate
// dispatch after a torn response) finds the bytes already in place.
func (cr *clusterRunner) fillPeers(ctx context.Context, from int, fp string, raw []byte) {
	for i, cl := range cr.clients {
		if i == from {
			continue
		}
		if err := cl.fill(ctx, fp, raw); err != nil {
			cl.c.peerFillErrors.Add(1)
			continue
		}
		cl.c.peerFills.Add(1)
	}
}
