package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aes"
	"repro/internal/attack"
	"repro/internal/engine"
	"repro/internal/sca"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// Shape of the scad workload at full size. Uploads and requests take
// the shapes the repository's own clients send: `scadctl upload` cuts
// 1 MiB parts and leaves chunk_traces to the server, whose store then
// uses tracestore.DefaultChunkTraces; scripts/scad_smoke.sh's
// /v1/attack request is figure 3 at 2000 traces and 2 rounds. No client
// records a hit-to-miss ratio; README.md gives the reasons for the mix.
const (
	scadTraces      = 25000   // uploaded traces: 25000 x (500 samples + 16-byte plaintext) is about 100 MB
	scadSamples     = 500     // samples per uploaded trace
	scadPartBytes   = 1 << 20 // scadctl upload's default -part
	scadMisses      = 20      // distinct /v1/attack requests per pass
	scadHitsPerMiss = 10      // repeats of each distinct request per pass
	scadMissTraces  = 2000    // traces per /v1/attack request, as scad_smoke.sh sends
	scadMissRounds  = 2       // rounds per /v1/attack request, as scad_smoke.sh sends
)

// uploadPart and uploadDecl are the client side of the POST /v1/traces
// declaration.
type uploadPart struct {
	Offset int64  `json:"offset"`
	Size   int64  `json:"size"`
	CRC32C string `json:"crc32c"`
}

type uploadDecl struct {
	Size        int64        `json:"size"`
	ChunkTraces int          `json:"chunk_traces,omitempty"`
	Parts       []uploadPart `json:"parts"`
}

// uploadStatus is the part of the upload status body the checks read.
type uploadStatus struct {
	ID        string `json:"id"`
	Committed bool   `json:"committed"`
	Store     *struct {
		Digest string `json:"digest"`
		Traces int    `json:"traces"`
	} `json:"store"`
}

// scadWorkload drives a fresh scad server per pass over loopback with
// closed-loop clients: upload and commit a trace set, analyze it, then
// a run of distinct attack requests (misses) and a longer run of repeats
// (hits).
type scadWorkload struct {
	cfg config

	stream     []byte
	decl       uploadDecl
	wantDigest string
	traces     int
	keyByte    int
	key        []byte
	misses     [][]byte
	hits       int
	missTraces int
}

func newScad(cfg config) *scadWorkload { return &scadWorkload{cfg: cfg} }

func (w *scadWorkload) name() string { return "scad" }

// setup generates the trace set and the request mix from the seed, and
// computes the digest a committed store of those bytes must carry by
// ingesting them locally.
func (w *scadWorkload) setup() error {
	w.traces, w.missTraces = scadTraces, scadMissTraces
	misses := scadMisses
	if w.cfg.shrink {
		w.traces, w.missTraces, misses = 600, 200, scadMisses
	}
	w.hits = misses * scadHitsPerMiss
	rng := rand.New(rand.NewSource(engine.DeriveSeed(w.cfg.seed, "scad/traces")))
	w.key = attack.DefaultKey[:]
	w.keyByte = rng.Intn(aes.BlockSize)
	stream, err := leakyStream(rng, w.traces, scadSamples, w.keyByte, w.key[w.keyByte])
	if err != nil {
		return err
	}
	w.stream = stream
	w.decl = declare(stream, scadPartBytes)
	if w.wantDigest, err = localDigest(w.cfg.tmp, stream); err != nil {
		return err
	}
	w.misses = w.misses[:0]
	for i := 0; i < misses; i++ {
		body, err := json.Marshal(attack.Request{
			Figure: attack.FigureFig3, Traces: w.missTraces, Rounds: scadMissRounds,
			Seed: engine.DeriveSeed(w.cfg.seed, fmt.Sprintf("scad/attack-%d", i)),
		})
		if err != nil {
			return err
		}
		w.misses = append(w.misses, body)
	}
	return nil
}

// leakyStream serializes n traces of standard-normal noise in which one
// sample leaks HW(SubBytes(pt[keyByte] ^ key)), each with its plaintext
// as the auxiliary record.
func leakyStream(rng *rand.Rand, n, samples, keyByte int, key byte) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(12 + n*(4+aes.BlockSize+8*samples))
	sw, err := trace.NewSetWriter(&buf, n, samples)
	if err != nil {
		return nil, err
	}
	pt := make([]byte, aes.BlockSize)
	tr := make(trace.Trace, samples)
	for i := 0; i < n; i++ {
		rng.Read(pt)
		for s := range tr {
			tr[s] = rng.NormFloat64()
		}
		tr[samples/2] += 0.5 * float64(sca.HW8(aes.SubBytesOut(pt[keyByte], key)))
		if err := sw.Append(tr, pt); err != nil {
			return nil, err
		}
	}
	if err := sw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// declare splits stream into parts of partSize bytes and, like scadctl,
// leaves the store chunking to the server.
func declare(stream []byte, partSize int) uploadDecl {
	d := uploadDecl{Size: int64(len(stream))}
	for off := 0; off < len(stream); off += partSize {
		end := min(off+partSize, len(stream))
		d.Parts = append(d.Parts, uploadPart{Offset: int64(off), Size: int64(end - off),
			CRC32C: tracestore.CRCHex(stream[off:end])})
	}
	return d
}

// localDigest ingests stream into a scratch store under tmp, chunked as
// the server chunks an upload that names no chunk_traces, and returns
// the store's content digest.
func localDigest(tmp string, stream []byte) (string, error) {
	dir, err := os.MkdirTemp(tmp, "digest-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	store := filepath.Join(dir, "store")
	if err := tracestore.Ingest(store, bytes.NewReader(stream), 0); err != nil {
		return "", err
	}
	st, err := tracestore.Open(store)
	if err != nil {
		return "", err
	}
	defer st.Close()
	return st.Digest(), nil
}

// scadClient is one pass's loopback client with its measurements.
type scadClient struct {
	base string
	http *http.Client
	tr   *tracer
	p    *passResult
	mu   sync.Mutex // guards p and rejected
	// rejected counts 429 responses.
	rejected int
}

// do sends one request, records its latency and span, and returns the
// status, the cache disposition header and the body. Transport errors
// and 429s count as failed operations.
func (c *scadClient) do(span string, parent int, req, method, path string, body []byte) (int, string, []byte, time.Duration) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	start := time.Now()
	hreq, err := http.NewRequest(method, c.base+path, rd)
	var (
		status int
		disp   string
		out    []byte
	)
	if err == nil {
		var resp *http.Response
		if resp, err = c.http.Do(hreq); err == nil {
			out, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			status, disp = resp.StatusCode, resp.Header.Get("X-Scad-Cache")
		}
	}
	stop := time.Now()
	c.tr.add(span, parent, req, start, stop)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.p.Ops++
	c.p.LatMs = append(c.p.LatMs, ms(stop.Sub(start)))
	switch {
	case err != nil:
		c.p.fail("%s %s: %v", method, path, err)
	case status == http.StatusTooManyRequests:
		c.rejected++
		c.p.fail("%s %s: 429", method, path)
	}
	return status, disp, out, stop.Sub(start)
}

// failf records a failed check.
func (c *scadClient) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.p.fail(format, args...)
}

// closedLoop runs n requests over clients goroutines, each sending its
// next request only after the previous one completed.
func closedLoop(clients, n int, one func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				one(i)
			}
		}()
	}
	wg.Wait()
}

// pass runs one scad session against a fresh server.
func (w *scadWorkload) pass(tr *tracer) *passResult {
	p := newPassResult()
	dir, err := os.MkdirTemp(w.cfg.tmp, "scad-")
	if err != nil {
		p.fail("scratch dir: %v", err)
		return p
	}
	defer os.RemoveAll(dir)
	srv, err := serve.New(serve.Options{Workers: w.cfg.load, MaxConcurrent: w.cfg.load, DataDir: dir})
	if err != nil {
		p.fail("serve.New: %v", err)
		return p
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.fail("listen: %v", err)
		return p
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	transport := &http.Transport{MaxIdleConnsPerHost: 2 * w.cfg.load, DisableCompression: true}
	c := &scadClient{base: "http://" + ln.Addr().String(), http: &http.Client{Transport: transport}, tr: tr, p: p}
	defer func() {
		transport.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
		<-served
	}()

	root, end := tr.begin("scad.pass", 0, "")
	t0 := time.Now()
	check := w.session(c, root)
	p.Wall = time.Since(t0).Seconds()
	end()
	p.Root = root
	p.checked(check)
	p.Metrics["serve.rejected_429"] = float64(c.rejected)
	return p
}

// reply is one response kept for the checks that follow the session.
type reply struct {
	status int
	disp   string
	body   []byte
}

// session is the timed request sequence of one pass. Only what the
// protocol needs to go on is read inside it; it returns the output
// checks, which the pass runs after the timed part.
func (w *scadWorkload) session(c *scadClient, root int) (check func()) {
	p := c.p
	check = func() {}
	phaseCPU := map[string]float64{}
	mark, at := "upload", cpuTime()
	phase := func(next string) {
		now := cpuTime()
		phaseCPU[mark] += now - at
		mark, at = next, now
	}
	defer func() {
		phase("")
		p.Counters["phase_cpu_s"] = phaseCPU
	}()
	// Upload: declare, parts, commit.
	upID, endUp := c.tr.begin("scad.upload", root, "upload")
	up0 := time.Now()
	declBody, _ := json.Marshal(w.decl) // plain structs of strings and ints
	status, _, body, _ := c.do("serve.declare", upID, "upload", http.MethodPost, "/v1/traces", declBody)
	var st uploadStatus
	if status != http.StatusOK || json.Unmarshal(body, &st) != nil || st.ID == "" {
		c.failf("declare: status %d: %s", status, trim(body))
		endUp()
		return check
	}
	var partMs []float64
	var partMu sync.Mutex
	closedLoop(w.cfg.load, len(w.decl.Parts), func(i int) {
		part := w.decl.Parts[i]
		path := fmt.Sprintf("/v1/traces/%s/parts/%d", st.ID, part.Offset)
		status, _, body, took := c.do("serve.upload_part", upID, "upload", http.MethodPut, path,
			w.stream[part.Offset:part.Offset+part.Size])
		if status/100 != 2 {
			c.failf("part %d: status %d: %s", part.Offset, status, trim(body))
		}
		partMu.Lock()
		partMs = append(partMs, ms(took))
		partMu.Unlock()
	})
	status, _, body, commitTook := c.do("serve.commit", upID, "upload", http.MethodPost, "/v1/traces/"+st.ID+"/commit", nil)
	ingest := time.Since(up0)
	endUp()
	if status != http.StatusOK {
		c.failf("commit: status %d: %s", status, trim(body))
		return check
	}
	commit := reply{status: status, body: body}
	p.Metrics["ingest_mb_per_s"] = float64(len(w.stream)) / 1e6 / ingest.Seconds()
	p.Metrics["serve.upload_part_p50_ms"] = median(partMs)
	p.Metrics["serve.commit_s"] = commitTook.Seconds()

	// Analyze: out-of-core CPA over the committed store.
	phase("analyze")
	anID, endAn := c.tr.begin("scad.analyze", root, "analyze")
	anBody, _ := json.Marshal(map[string]any{"set": st.ID, "kind": "cpa", "key_byte": w.keyByte, "key": hex.EncodeToString(w.key)})
	status, _, body, anTook := c.do("serve.analyze", anID, "analyze", http.MethodPost, "/v1/analyze", anBody)
	endAn()
	analyze := reply{status: status, body: body}
	p.Metrics["analyze_traces_per_s"] = float64(w.traces) / anTook.Seconds()

	// Misses: every distinct request computes.
	phase("misses")
	misses := make([]reply, len(w.misses))
	missMs := make([]float64, len(w.misses))
	missID, endMiss := c.tr.begin("scad.misses", root, "")
	closedLoop(w.cfg.load, len(w.misses), func(i int) {
		req := fmt.Sprintf("attack-%d", i)
		status, disp, body, took := c.do("serve.attack_miss", missID, req, http.MethodPost, "/v1/attack", w.misses[i])
		misses[i], missMs[i] = reply{status, disp, body}, ms(took)
	})
	endMiss()

	// Hits: repeats of the misses, served from the cache.
	phase("hits")
	hits := make([]reply, w.hits)
	hitMs := make([]float64, w.hits)
	hitID, endHit := c.tr.begin("scad.hits", root, "")
	closedLoop(w.cfg.load, w.hits, func(i int) {
		j := i % len(w.misses)
		req := fmt.Sprintf("attack-%d", j)
		status, disp, body, took := c.do("serve.attack_hit", hitID, req, http.MethodPost, "/v1/attack", w.misses[j])
		hits[i], hitMs[i] = reply{status, disp, body}, ms(took)
	})
	endHit()
	p.Metrics["attack_miss_p50_ms"] = median(missMs)
	p.Metrics["attack_hit_p50_ms"] = median(hitMs)
	setTail(p, "serve.attack_miss_tail_ms", missMs)
	setTail(p, "serve.attack_hit_tail_ms", hitMs)

	// Stats: the cache counters, checked against the designed mix.
	phase("stats")
	status, _, body, _ = c.do("serve.stats", root, "stats", http.MethodGet, "/v1/stats", nil)
	var stats *serve.Stats
	if status != http.StatusOK || json.Unmarshal(body, &stats) != nil || stats == nil {
		c.failf("stats: status %d: %s", status, trim(body))
		stats = nil
	} else if total := stats.Cache.Hits + stats.Cache.Misses; total > 0 {
		p.Metrics["serve.cache_hit_ratio"] = float64(stats.Cache.Hits) / float64(total)
	}
	p.Counters["stats"] = stats
	p.Counters["upload_parts"] = len(w.decl.Parts)
	p.Counters["upload_bytes"] = len(w.stream)
	return func() { w.check(c, commit, analyze, misses, hits, stats) }
}

// check runs the output checks of one session.
// A nil stats failed already and is not checked again.
func (w *scadWorkload) check(c *scadClient, commit, analyze reply, misses, hits []reply, stats *serve.Stats) {
	var cst uploadStatus
	switch {
	case json.Unmarshal(commit.body, &cst) != nil || cst.Store == nil:
		c.failf("commit: status %d: %s", commit.status, trim(commit.body))
	case cst.Store.Digest != w.wantDigest:
		c.failf("commit: store digest %s, local ingest of the same bytes gives %s", cst.Store.Digest, w.wantDigest)
	case cst.Store.Traces != w.traces:
		c.failf("commit: store holds %d traces, uploaded %d", cst.Store.Traces, w.traces)
	}

	var an struct {
		Result attack.StoreCPAResult `json:"result"`
	}
	switch {
	case analyze.status != http.StatusOK || json.Unmarshal(analyze.body, &an) != nil:
		c.failf("analyze: status %d: %s", analyze.status, trim(analyze.body))
	case !an.Result.Complete || an.Result.Rank != 0 || an.Result.Traces != w.traces:
		c.failf("analyze: complete=%v rank=%d traces=%d", an.Result.Complete, an.Result.Rank, an.Result.Traces)
	}

	// A miss that failed its check leaves its body nil, so its repeats
	// fail too.
	missBodies := make([][]byte, len(misses))
	for i, m := range misses {
		var resp struct {
			Result attack.Response `json:"result"`
		}
		switch {
		case m.status != http.StatusOK || json.Unmarshal(m.body, &resp) != nil || resp.Result.Attack == nil:
			c.failf("attack %d: status %d: %s", i, m.status, trim(m.body))
		case m.disp != "miss":
			c.failf("attack %d: cache disposition %q, want miss", i, m.disp)
		case resp.Result.Attack.Rank != 0:
			c.failf("attack %d: key byte not recovered (rank %d)", i, resp.Result.Attack.Rank)
		default:
			missBodies[i] = m.body
		}
	}
	for i, h := range hits {
		j := i % len(misses)
		if err := checkHit(h.status, h.disp, h.body, missBodies[j]); err != nil {
			c.failf("repeat of attack %d: %v", j, err)
		}
	}

	// The cache counters must equal the designed mix exactly.
	wantMisses := uint64(len(misses) + 1) // + the analyze
	if stats != nil && stats.Cache.Hits != uint64(len(hits)) || stats.Cache.Misses != wantMisses {
		c.failf("stats: cache %d hits / %d misses, designed %d / %d", stats.Cache.Hits, stats.Cache.Misses, len(hits), wantMisses)
	}
}

// checkHit checks one repeated request: served from the cache with
// exactly the bytes its miss returned.
func checkHit(status int, disp string, body, miss []byte) error {
	switch {
	case status != http.StatusOK:
		return fmt.Errorf("status %d", status)
	case disp != "hit":
		return fmt.Errorf("cache disposition %q, want hit", disp)
	case !bytes.Equal(body, miss):
		return errors.New("body differs from the miss body")
	}
	return nil
}

// setTail records the tail percentile of xs under name, with the
// percentile and sample counts as counters.
func setTail(p *passResult, name string, xs []float64) {
	v, pct, beyond, ok := tail(xs)
	if !ok {
		return
	}
	p.Metrics[name] = v
	p.Counters[name] = map[string]any{"percentile": pct, "samples": len(xs), "beyond": beyond}
}

// trim shortens a response body for an error message.
func trim(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}
