// Package serve exposes the repository's side-channel-analysis
// pipelines — the §5 attacks, the §4 leakage scans and whole campaigns
// — as a long-running HTTP JSON service ("scad") built for repeated
// traffic.
//
// The design exploits the engine's determinism contract: every result
// is a pure function of its canonical request (PRs 2–4 made attacks,
// scans and campaigns bit-identical across workers, shards and lanes),
// so a request's canonical-JSON SHA-256 fingerprint fully identifies
// its response bytes. The service therefore serves every computation
// from a content-addressed cache: an in-memory LRU over an optional
// append-only JSONL spill file, with concurrent identical requests
// collapsed into one computation (singleflight) and a bounded compute
// queue that sheds load with 429 + Retry-After instead of queueing
// without bound. Repeated or overlapping requests cost one computation
// and return byte-identical bodies.
//
// Endpoints:
//
//	POST   /v1/attack            fig3 | fig4 | fullkey | rankevo (attack.Request + ablation)
//	POST   /v1/leakscan          Table 2 scan (leakscan.Request + ablation)
//	POST   /v1/scenario          one resolved campaign scenario (campaign.ScenarioRequest)
//	POST   /v1/campaign          async campaign job (campaign.Spec body)
//	GET    /v1/jobs/{id}         job progress
//	GET    /v1/jobs/{id}/events  job progress as SSE
//	DELETE /v1/jobs/{id}         cancel a job
//	GET    /v1/results/{fp}      any cached result by fingerprint
//	PUT    /v1/results/{fp}      peer cache fill (cluster result replication)
//	GET    /v1/stats             cache/queue/pool counters
//	GET    /healthz              liveness + readiness detail
//
// With Options.DataDir set, the real-trace ingestion endpoints come up
// too (see traces.go): chunked, resumable, idempotent trace-set uploads
// (POST /v1/traces, PUT /v1/traces/{id}/parts/{offset}, POST
// /v1/traces/{id}/commit, GET /v1/traces/{id}) and out-of-core analysis
// over a committed store (POST /v1/analyze).
//
// The scenario endpoint plus the results GET/PUT pair make a scad
// process a cluster worker: a coordinator (internal/cluster,
// cmd/scadctl) partitions a campaign's scenario list across N workers,
// reads through their caches on the scenario fingerprint before
// dispatch, and replicates finished bodies to peers, with byte-stable
// responses as the correctness oracle.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/cpufeat"
	"repro/internal/engine"
	"repro/internal/leakscan"
)

// Options tunes a Server. The zero value serves with one engine worker
// pool per core, two concurrent computations, and a 256-entry cache.
type Options struct {
	// Workers sizes each computation's engine pool (0: one per core).
	Workers int
	// Lanes is the lane-parallel replay batch width (0: default).
	Lanes int
	// MaxConcurrent bounds computations running at once (0: 2).
	MaxConcurrent int
	// MaxQueue bounds computations waiting behind the running ones;
	// beyond it requests are refused with 429 (0: 8, negative: no
	// queueing at all — refuse whenever every slot is busy).
	MaxQueue int
	// CacheEntries bounds the in-memory result LRU (0: 256).
	CacheEntries int
	// SpillPath, when non-empty, backs the cache with an append-only
	// JSONL file that persists results across restarts.
	SpillPath string
	// GateWidth bounds total chunk-synthesis concurrency across every
	// computation (0: one per core; negative: ungated).
	GateWidth int
	// KeepJobs bounds retained terminal campaign jobs (0: 64).
	KeepJobs int
	// DataDir, when non-empty, enables real-trace ingestion (the
	// /v1/traces upload endpoints and /v1/analyze): uploads assemble
	// under DataDir/uploads and committed stores live under
	// DataDir/sets.
	DataDir string
}

// Server is the scad service state. Create with New, expose with
// Handler, stop with Close.
type Server struct {
	opt     Options
	cache   *Cache
	flights *flightGroup
	queue   *limiter
	jobs    *jobRegistry
	gate    *engine.Gate
	uploads *uploads

	base   context.Context
	cancel context.CancelFunc
}

// New builds a Server.
func New(opt Options) (*Server, error) {
	if opt.MaxConcurrent == 0 {
		opt.MaxConcurrent = 2
	}
	if opt.MaxQueue == 0 {
		opt.MaxQueue = 8
	}
	if opt.CacheEntries == 0 {
		opt.CacheEntries = 256
	}
	cache, err := NewCache(opt.CacheEntries, opt.SpillPath)
	if err != nil {
		return nil, err
	}
	var gate *engine.Gate
	if opt.GateWidth >= 0 {
		w := opt.GateWidth
		if w == 0 {
			w = runtime.GOMAXPROCS(0)
		}
		gate = engine.NewGate(w)
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt:     opt,
		cache:   cache,
		flights: newFlightGroup(),
		queue:   newLimiter(opt.MaxConcurrent, opt.MaxQueue),
		jobs:    newJobRegistry(opt.KeepJobs),
		gate:    gate,
		base:    base,
		cancel:  cancel,
	}
	if opt.DataDir != "" {
		s.uploads = newUploads(opt.DataDir)
	}
	return s, nil
}

// Close cancels every in-flight computation and job and releases the
// spill file.
func (s *Server) Close() error {
	s.cancel()
	return s.cache.Close()
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/attack", s.handleAttack)
	mux.HandleFunc("POST /v1/leakscan", s.handleLeakscan)
	mux.HandleFunc("POST /v1/scenario", s.handleScenario)
	mux.HandleFunc("POST /v1/campaign", s.handleCampaign)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/results/{fingerprint}", s.handleResults)
	mux.HandleFunc("PUT /v1/results/{fingerprint}", s.handleResultsPut)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.uploads != nil {
		mux.HandleFunc("POST /v1/traces", s.handleTracesDeclare)
		mux.HandleFunc("GET /v1/traces/{id}", s.handleTracesStatus)
		mux.HandleFunc("PUT /v1/traces/{id}/parts/{offset}", s.handleTracesPart)
		mux.HandleFunc("POST /v1/traces/{id}/commit", s.handleTracesCommit)
		mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	}
	return mux
}

// Health is the /healthz body: liveness plus the readiness detail a
// cluster coordinator (or the smoke script) gates on. Ready flips to
// false the moment Close begins, so a draining worker stops attracting
// dispatches before its socket disappears; Saturated reports that a
// synchronous request issued right now would be refused with 429 —
// advisory load detail, not a reason to mark a worker dead.
type Health struct {
	Status       string `json:"status"`
	Ready        bool   `json:"ready"`
	Saturated    bool   `json:"saturated"`
	JobsActive   int    `json:"jobs_active"`
	CacheEntries int    `json:"cache_entries"`
	Spilled      int    `json:"spilled"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	status := http.StatusOK
	if !h.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// health snapshots the readiness view.
func (s *Server) health() Health {
	ready := s.base.Err() == nil
	st := s.cache.Stats()
	_, active := s.jobs.counts()
	h := Health{
		Status:       "ok",
		Ready:        ready,
		Saturated:    s.queue.saturated(),
		JobsActive:   active,
		CacheEntries: st.Entries,
		Spilled:      st.Spilled,
	}
	if !ready {
		h.Status = "shutting down"
	}
	return h
}

// run assembles one computation's scheduling: the server's pool size
// and lane width, the computation's context and the shared gate.
func (s *Server) run(ctx context.Context) engine.Config {
	return engine.Config{Workers: s.opt.Workers, Lanes: s.opt.Lanes, Ctx: ctx, Gate: s.gate}
}

// runEnv assembles the execution environment for one computation: the
// resolved ablation plus the server's shared scheduling.
func (s *Server) runEnv(ctx context.Context, ab campaign.Ablation) engine.RunEnv {
	return engine.RunEnv{Core: ab.Core, Model: ab.Model, Config: s.run(ctx)}
}

// fingerprintable is the canonical identity a synchronous request is
// digested from: the endpoint, the canonical ablation name, and the
// normalized request. Scheduling never appears here.
type fingerprintable struct {
	Endpoint string `json:"endpoint"`
	Ablation string `json:"ablation"`
	Request  any    `json:"request"`
}

// envelope is the response body shape shared by every cached result.
type envelope struct {
	Kind        string `json:"kind"`
	Fingerprint string `json:"fingerprint"`
	Result      any    `json:"result"`
}

// encodeBody renders the canonical (indented, trailing-newline) bytes
// of a result envelope — what the cache stores and every response
// carries, byte-identical per fingerprint.
func encodeBody(kind, fp string, result any) ([]byte, error) {
	raw, err := json.MarshalIndent(envelope{Kind: kind, Fingerprint: fp, Result: result}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(raw, '\n'))
}

func badRequest(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
}

// writeCached emits a cached (or just-computed) body with the cache
// disposition and fingerprint headers. An If-None-Match hit
// short-circuits to 304: fingerprints are sound ETags because equal
// fingerprints imply byte-equal bodies.
func writeCached(w http.ResponseWriter, r *http.Request, fp, disposition string, body []byte) {
	etag := `"` + fp + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("X-Scad-Fingerprint", fp)
	w.Header().Set("X-Scad-Cache", disposition)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// respond implements the shared synchronous request path: cache lookup,
// singleflight-collapsed computation under the bounded queue, then the
// byte-identical response.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, kind, fp string, run func(ctx context.Context) (any, error)) {
	if _, body, ok := s.cache.Get(fp); ok {
		writeCached(w, r, fp, "hit", body)
		return
	}
	body, shared, err := s.flights.do(r.Context(), s.base, fp, func(ctx context.Context) ([]byte, error) {
		if err := s.queue.acquire(ctx); err != nil {
			return nil, err
		}
		defer s.queue.release()
		result, err := run(ctx)
		if err != nil {
			return nil, err
		}
		body, err := encodeBody(kind, fp, result)
		if err != nil {
			return nil, err
		}
		// The cache fills only on success, so an abandoned (canceled)
		// computation leaves it clean.
		s.cache.Put(fp, kind, body)
		return body, nil
	})
	switch {
	case err == nil:
		disposition := "miss"
		if shared {
			disposition = "shared"
		}
		writeCached(w, r, fp, disposition, body)
	case errors.Is(err, ErrBusy):
		writeBusy(w)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The client is gone (or the server is shutting down); 499-style
		// best effort.
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	}
}

// attackRequest is the /v1/attack body: an attack.Request plus the
// named micro-architectural ablation to run it under.
type attackRequest struct {
	attack.Request
	// Ablation names the micro-architectural variant ("": "paper").
	Ablation string `json:"ablation,omitempty"`
}

func (s *Server) handleAttack(w http.ResponseWriter, r *http.Request) {
	var req attackRequest
	if err := decodeStrict(r, &req); err != nil {
		badRequest(w, err)
		return
	}
	ab, err := campaign.ParseAblation(req.Ablation)
	if err != nil {
		badRequest(w, err)
		return
	}
	if err := req.Normalize(); err != nil {
		badRequest(w, err)
		return
	}
	fp := campaign.CanonicalDigest(fingerprintable{Endpoint: "attack", Ablation: ab.Name, Request: &req.Request})
	s.respond(w, r, "attack", fp, func(ctx context.Context) (any, error) {
		return req.Request.Run(s.runEnv(ctx, ab))
	})
}

// leakscanRequest is the /v1/leakscan body.
type leakscanRequest struct {
	leakscan.Request
	// Ablation names the micro-architectural variant ("": "paper").
	Ablation string `json:"ablation,omitempty"`
}

func (s *Server) handleLeakscan(w http.ResponseWriter, r *http.Request) {
	var req leakscanRequest
	if err := decodeStrict(r, &req); err != nil {
		badRequest(w, err)
		return
	}
	ab, err := campaign.ParseAblation(req.Ablation)
	if err != nil {
		badRequest(w, err)
		return
	}
	if err := req.Normalize(); err != nil {
		badRequest(w, err)
		return
	}
	fp := campaign.CanonicalDigest(fingerprintable{Endpoint: "leakscan", Ablation: ab.Name, Request: &req.Request})
	s.respond(w, r, "leakscan", fp, func(ctx context.Context) (any, error) {
		return req.Request.Run(s.runEnv(ctx, ab))
	})
}

// handleScenario executes one fully resolved campaign scenario — the
// cluster worker's unit of dispatch. The request is self-validating
// (campaign.ScenarioRequest.Resolve recomputes the canonical ID and
// derives the seed), and the response flows through the same
// cache/singleflight/queue path as every other synchronous result, so
// a coordinator retrying a torn response finds the finished body as a
// cache hit instead of recomputing it.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	var req campaign.ScenarioRequest
	if err := decodeStrict(r, &req); err != nil {
		badRequest(w, err)
		return
	}
	sc, key, err := req.Resolve()
	if err != nil {
		badRequest(w, err)
		return
	}
	fp := req.Fingerprint()
	s.respond(w, r, "scenario", fp, func(ctx context.Context) (any, error) {
		return campaign.Execute(sc, key, s.run(ctx))
	})
}

// handleResultsPut is the peer cache-fill path: a cluster coordinator
// replicates a finished body to the other workers so a scenario a lost
// worker handed back (or a retried torn response) is served from cache instead of
// recomputed. The body must be a result envelope whose embedded
// fingerprint matches the path — within a trusted cluster that suffices,
// because bodies are pure functions of their fingerprints, so the worst
// a well-formed fill can do is store exactly the bytes the worker would
// have computed itself.
func (s *Server) handleResultsPut(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		badRequest(w, fmt.Errorf("serve: reading cache fill: %w", err))
		return
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		badRequest(w, fmt.Errorf("serve: cache fill is not a result envelope: %w", err))
		return
	}
	if env.Fingerprint != fp {
		badRequest(w, fmt.Errorf("serve: cache fill fingerprint %.12s… does not match path %.12s…", env.Fingerprint, fp))
		return
	}
	if env.Kind == "" {
		badRequest(w, fmt.Errorf("serve: cache fill lacks a result kind"))
		return
	}
	s.cache.Put(fp, env.Kind, body)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	var spec campaign.Spec
	if err := decodeStrict(r, &spec); err != nil {
		badRequest(w, err)
		return
	}
	if err := spec.Validate(); err != nil {
		badRequest(w, err)
		return
	}
	fp := spec.Fingerprint()
	if _, body, ok := s.cache.Get(fp); ok {
		writeCached(w, r, fp, "hit", body)
		return
	}
	if s.queue.saturated() {
		writeBusy(w)
		return
	}
	scenarios, err := spec.Enumerate()
	if err != nil {
		badRequest(w, err)
		return
	}
	jctx, jcancel := context.WithCancel(s.base)
	j, started := s.jobs.addUnlessActive(newJob(fp, &spec, len(scenarios), jcancel))
	if !started {
		// The same spec is already queued or running (possibly submitted
		// concurrently): report that job instead of starting a duplicate.
		jcancel()
		writeJSON(w, http.StatusAccepted, j.Status())
		return
	}
	go s.runJob(j, jctx)
	writeJSON(w, http.StatusAccepted, j.Status())
}

// runJob executes one campaign job to completion.
func (s *Server) runJob(j *job, ctx context.Context) {
	defer s.jobs.finish(j)
	defer j.cancel()
	if err := s.queue.acquire(ctx); err != nil {
		s.failJob(j, ctx, err)
		return
	}
	defer s.queue.release()
	j.transition(StateRunning, "", "")
	res, err := campaign.Run(j.spec, campaign.RunOptions{
		Workers:    s.opt.Workers,
		Lanes:      s.opt.Lanes,
		Ctx:        ctx,
		Gate:       s.gate,
		OnScenario: j.scenarioDone,
	})
	if err != nil {
		s.failJob(j, ctx, err)
		return
	}
	body, err := encodeBody("campaign", j.id, res)
	if err != nil {
		s.failJob(j, ctx, err)
		return
	}
	s.cache.Put(j.id, "campaign", body)
	j.transition(StateDone, "", "/v1/results/"+j.id)
}

// failJob marks a job failed, or canceled when its context was the
// cause.
func (s *Server) failJob(j *job, ctx context.Context, err error) {
	if ctx.Err() != nil {
		j.transition(StateCanceled, ctx.Err().Error(), "")
		return
	}
	j.transition(StateFailed, err.Error(), "")
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, apiError{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	ch := j.subscribe()
	defer j.unsubscribe(ch)
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			raw, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, raw)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fingerprint")
	if _, body, ok := s.cache.Get(fp); ok {
		writeCached(w, r, fp, "hit", body)
		return
	}
	writeJSON(w, http.StatusNotFound, apiError{Error: "no cached result for fingerprint"})
}

// Stats is the /v1/stats body.
type Stats struct {
	Cache        CacheStats `json:"cache"`
	InFlight     int        `json:"in_flight"`
	Jobs         int        `json:"jobs"`
	JobsActive   int        `json:"jobs_active"`
	Workers      int        `json:"workers"`
	Lanes        int        `json:"lanes"`
	GateWidth    int        `json:"gate_width"`
	AVX512       bool       `json:"avx512"`
	AVX512Popcnt bool       `json:"avx512_popcnt"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	total, active := s.jobs.counts()
	writeJSON(w, http.StatusOK, Stats{
		Cache:        s.cache.Stats(),
		InFlight:     s.flights.inFlight(),
		Jobs:         total,
		JobsActive:   active,
		Workers:      s.opt.Workers,
		Lanes:        s.opt.Lanes,
		GateWidth:    s.gate.Width(),
		AVX512:       cpufeat.AVX512,
		AVX512Popcnt: cpufeat.AVX512Popcnt,
	})
}

// decodeStrict parses a JSON request body, rejecting unknown fields so
// a typo cannot silently drop a result-affecting knob, and bounding the
// body size.
func decodeStrict(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: parsing request: %w", err)
	}
	return nil
}

// RetryAfter is how long a 429 asks clients to back off.
const RetryAfter = 2 * time.Second

// writeBusy emits the backpressure response: 429 with Retry-After.
func writeBusy(w http.ResponseWriter) {
	w.Header().Set("Retry-After", fmt.Sprintf("%d", int(RetryAfter.Seconds())))
	writeJSON(w, http.StatusTooManyRequests, apiError{Error: ErrBusy.Error()})
}
