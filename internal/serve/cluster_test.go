package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/engine"
)

// testScenarioRequest enumerates a tiny single-scenario campaign and
// returns its wire form — the worker-side unit the cluster dispatches.
func testScenarioRequest(t *testing.T) campaign.ScenarioRequest {
	t.Helper()
	spec, err := campaign.ParseSpec([]byte(`{
	  "name": "serve-cluster",
	  "seed": 11,
	  "workloads": [{"kind": "fig3", "traces": [64], "rounds": 1, "averages": 1}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := spec.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	return scenarios[0].WireRequest(spec.Name, spec.Seed, spec.Key)
}

func TestScenarioEndpointServesByteIdenticalFromCache(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := testScenarioRequest(t)
	raw, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	r1, b1 := post(t, ts.URL+"/v1/scenario", string(raw))
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", r1.StatusCode, b1)
	}
	if got := r1.Header.Get("X-Scad-Cache"); got != "miss" {
		t.Fatalf("first request disposition %q, want miss", got)
	}
	r2, b2 := post(t, ts.URL+"/v1/scenario", string(raw))
	if got := r2.Header.Get("X-Scad-Cache"); got != "hit" {
		t.Fatalf("second request disposition %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("repeated scenario bodies differ:\n%s\n%s", b1, b2)
	}
	if fp := r1.Header.Get("X-Scad-Fingerprint"); fp != req.Fingerprint() {
		t.Fatalf("fingerprint header %q, want the request's own %q", fp, req.Fingerprint())
	}

	// The envelope carries a ScenarioResult identical to a direct
	// in-process execution — the worker adds nothing and loses nothing.
	var env struct {
		Kind        string                  `json:"kind"`
		Fingerprint string                  `json:"fingerprint"`
		Result      campaign.ScenarioResult `json:"result"`
	}
	if err := json.Unmarshal(b1, &env); err != nil {
		t.Fatal(err)
	}
	if env.Kind != "scenario" || env.Fingerprint != req.Fingerprint() {
		t.Fatalf("envelope kind %q fingerprint %.12s…", env.Kind, env.Fingerprint)
	}
	sc, key, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Execute(sc, key, engine.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, _ := json.Marshal(want)
	gotRaw, _ := json.Marshal(&env.Result)
	if !bytes.Equal(wantRaw, gotRaw) {
		t.Fatalf("served scenario result differs from in-process execution:\n%s\n%s", gotRaw, wantRaw)
	}
}

func TestScenarioEndpointRejectsTamperedRequest(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := testScenarioRequest(t)
	req.Traces *= 2 // stale ID
	raw, _ := json.Marshal(&req)
	resp, body := post(t, ts.URL+"/v1/scenario", string(raw))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tampered request: %d %s, want 400", resp.StatusCode, body)
	}
}

func TestResultsPutFillsCacheByteIdentically(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := testScenarioRequest(t)
	raw, _ := json.Marshal(&req)
	r1, b1 := post(t, ts.URL+"/v1/scenario", string(raw))
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("compute: %d %s", r1.StatusCode, b1)
	}
	fp := req.Fingerprint()

	// A second, empty worker receives the body via peer fill...
	_, ts2 := newTestServer(t, Options{})
	putReq, err := http.NewRequest(http.MethodPut, ts2.URL+"/v1/results/"+fp, bytes.NewReader(b1))
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := http.DefaultClient.Do(putReq)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusNoContent {
		t.Fatalf("peer fill: %d, want 204", putResp.StatusCode)
	}

	// ...and then serves it byte-identically, both by fingerprint GET and
	// as a cache hit on the scenario POST itself.
	rg, bg := get(t, ts2.URL+"/v1/results/"+fp)
	if rg.StatusCode != http.StatusOK || !bytes.Equal(bg, b1) {
		t.Fatalf("filled result not served byte-identically: %d", rg.StatusCode)
	}
	rp, bp := post(t, ts2.URL+"/v1/scenario", string(raw))
	if got := rp.Header.Get("X-Scad-Cache"); got != "hit" {
		t.Fatalf("scenario POST after peer fill: disposition %q, want hit", got)
	}
	if !bytes.Equal(bp, b1) {
		t.Fatal("scenario POST after peer fill must return the filled bytes")
	}

	// A fill whose envelope fingerprint disagrees with the path is refused.
	bad, err := http.NewRequest(http.MethodPut, ts2.URL+"/v1/results/deadbeef", bytes.NewReader(b1))
	if err != nil {
		t.Fatal(err)
	}
	badResp, err := http.DefaultClient.Do(bad)
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched fill: %d, want 400", badResp.StatusCode)
	}
}

func TestHealthzReportsReadinessDetail(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if !h.Ready || h.Status != "ok" {
		t.Fatalf("healthz %+v, want ready ok", h)
	}
	if h.Saturated {
		t.Fatal("an idle server must not report saturation")
	}
	// The smoke script greps for this exact readiness marker; keep the
	// canonical JSON spelling pinned.
	if !strings.Contains(string(body), `"ready": true`) {
		t.Fatalf("healthz body must spell \"ready\": true, got %s", body)
	}

	// Readiness flips with shutdown: a draining worker answers 503 so a
	// coordinator stops dispatching before the socket disappears.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	resp2, body2 := get(t, ts.URL+"/healthz")
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Close: %d %s, want 503", resp2.StatusCode, body2)
	}
	var h2 Health
	if err := json.Unmarshal(body2, &h2); err != nil {
		t.Fatal(err)
	}
	if h2.Ready {
		t.Fatal("a closed server must not report ready")
	}
}
